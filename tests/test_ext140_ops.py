"""Extension batch 140: median-of-medians audit + Simpson slices."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "lineitem", "supplier"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_mom_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext140 import (
        SQL_MEDIAN_OF_MEDIANS_AUDIT, q_median_of_medians_audit,
    )

    d = q_median_of_medians_audit(SF).to_pandas()
    o = con.execute(SQL_MEDIAN_OF_MEDIANS_AUDIT).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_mom_guarantee(ray_session):
    """The weighted MoM rank guarantee: with 32 shards, MoM is a
    (roughly) 25–75 percentile element; pin the loose bound that its
    rank error is under 30% of N (the textbook bound for equal shard
    sizes is 25%; shards here differ by ±1 in size)."""
    from polylabel_rs_ray.pipelines.queries_ext140 import (
        q_median_of_medians_audit,
    )

    d = q_median_of_medians_audit(SF).to_pandas().iloc[0]
    assert 0 <= d["mom_rank"] <= d["n_values"]
    assert d["abs_rank_err"] <= 0.30 * d["n_values"]
    # exact median must sit at the true lower-median index by definition
    assert d["n_values"] > 0


def test_simpson_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext140 import (
        SQL_SIMPSONS_PARADOX_SLICES, q_simpsons_paradox_slices,
    )

    d = q_simpsons_paradox_slices(SF).to_pandas()
    o = con.execute(SQL_SIMPSONS_PARADOX_SLICES).df()
    assert len(d) == len(o) > 1
    assert _norm(d).equals(_norm(o))


def test_simpson_brute(ray_session, con):
    """Python big-int twin for every slice; the ALL row's raw moments
    are the sums of the slice moments; signs match the string values."""
    from polylabel_rs_ray.pipelines.queries_ext140 import (
        q_simpsons_paradox_slices,
    )

    d = q_simpsons_paradox_slices(SF).to_pandas().set_index("slice_key")
    rows = con.execute("""
        SELECT CAST(s.s_nationkey AS VARCHAR) AS k,
               CAST(l.l_quantity AS BIGINT) AS x,
               CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS y
        FROM lineitem l JOIN supplier s ON s.s_suppkey = l.l_suppkey
    """).df()
    tot_n = tot_sx = tot_sy = tot_sxy = 0
    for k, g in rows.groupby("k"):
        n = len(g)
        sx = int(g["x"].sum())
        sy = int(g["y"].sum())
        sxy = int((g["x"] * g["y"]).sum())
        cov = n * sxy - sx * sy
        row = d.loc[k]
        assert row["n"] == n
        assert int(row["cov_num"]) == cov
        assert row["cov_sign"] == (cov > 0) - (cov < 0)
        tot_n += n
        tot_sx += sx
        tot_sy += sy
        tot_sxy += sxy
    pooled = tot_n * tot_sxy - tot_sx * tot_sy
    assert int(d.loc["ALL", "cov_num"]) == pooled
    assert d.loc["ALL", "n"] == tot_n
