"""Extension batch 170: merged-timeline runs + Chaikin smoothing stats."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders", "lineitem", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_runs_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext170 import (
        SQL_STREAM_ALTERNATION_RUNS, q_stream_alternation_runs,
    )

    d = q_stream_alternation_runs(SF).to_pandas()
    o = con.execute(SQL_STREAM_ALTERNATION_RUNS).df()
    assert len(d) == len(o) == 2
    assert _norm(d).equals(_norm(o))
    assert (d["n_runs"] > 10).all()  # genuinely interleaved streams


def test_runs_partitioned_equals_single_partition(ray_session):
    """The boundary-stitch fold must be invariant to the partition
    count — P=1 (no stitching at all) through P=13 (prime, uneven)."""
    from polylabel_rs_ray.pipelines.queries_ext170 import (
        q_stream_alternation_runs,
    )

    base = _norm(q_stream_alternation_runs(SF, n_parts=1).to_pandas())
    for P in (2, 5, 13):
        got = _norm(q_stream_alternation_runs(SF, n_parts=P).to_pandas())
        assert got.equals(base), P


def test_runs_scalar_twin(ray_session, con):
    """Global python merge + RLE from the raw tables."""
    from polylabel_rs_ray.pipelines.queries_ext170 import (
        SRC_ORDER, SRC_SHIP, q_stream_alternation_runs,
    )

    d = q_stream_alternation_runs(SF).to_pandas().set_index("src")
    rows = con.execute("""
        SELECT CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS day,
               0 AS sp, o_orderkey AS k1, 0 AS k2 FROM orders
        UNION ALL
        SELECT CAST(l_shipdate AS DATE) - DATE '1970-01-01', 1,
               l_orderkey, l_linenumber FROM lineitem
        ORDER BY 1, 2, 3, 4""").fetchall()
    runs = []
    for _, sp, _, _ in rows:
        if runs and runs[-1][0] == sp:
            runs[-1][1] += 1
        else:
            runs.append([sp, 1])
    for sp, name in ((0, SRC_ORDER), (1, SRC_SHIP)):
        rs = [ln for s, ln in runs if s == sp]
        assert int(d.loc[name, "n_runs"]) == len(rs)
        assert int(d.loc[name, "longest_run"]) == max(rs)
        assert int(d.loc[name, "n_items"]) == sum(rs)


def test_chaikin_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext170 import (
        _sql_chaikin_smooth_stats, q_chaikin_smooth_stats,
    )

    d = q_chaikin_smooth_stats(SF).to_pandas()
    o = con.execute(_sql_chaikin_smooth_stats()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_chaikin_properties(ray_session):
    """Doubled vertex counts, per-fixture constancy across documents
    (translation invariance), and a hand-checked unit square: one
    Chaikin round of the unit square is an octagon whose edges
    alternate squared lengths 1/4 (the kept side segments) and 1/8
    (the cut corners) -> total 4*(1/4) + 4*(1/8) = 3/2 -> 24576."""
    from polylabel_rs_ray.pipelines.queries_ext170 import (
        CHAIKIN_SCALE, _chaikin_cycle, q_chaikin_smooth_stats,
    )
    from polylabel_rs_ray.pipelines.queries import FIXTURE_CYCLE
    from polylabel_rs_ray.sources.fixtures import FIXTURES

    d = q_chaikin_smooth_stats(SF).to_pandas()
    for fi, grp in d.groupby("fixture_idx"):
        assert grp["seg_len2_scaled"].nunique() == 1
        assert grp["n_out_vertices"].nunique() == 1
        name = FIXTURE_CYCLE[int(fi)]
        ring = np.asarray(FIXTURES[name].rings[0], dtype=np.float64)
        m = len(ring) - (1 if np.array_equal(ring[0], ring[-1]) else 0)
        assert int(grp["n_out_vertices"].iloc[0]) == 2 * m

    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    sm = _chaikin_cycle(sq)
    dd = np.roll(sm, -1, axis=0) - sm
    assert len(sm) == 8
    assert int(round(float((dd * dd).sum() * CHAIKIN_SCALE))) == \
        24576  # (3/2) * 16384
