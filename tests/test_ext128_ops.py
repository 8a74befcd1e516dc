"""Extension batch 128: customer part-type HHI + brand share per type."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders", "lineitem", "part"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_hhi_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext128 import (
        SQL_CUSTOMER_PARTTYPE_HHI, q_customer_parttype_hhi,
    )

    d = q_customer_parttype_hhi(SF).to_pandas()
    o = con.execute(SQL_CUSTOMER_PARTTYPE_HHI).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_hhi_bounds(ray_session):
    """Cauchy-Schwarz box: n²/k <= sumsq <= n² (k = distinct types);
    single-type customers hit the upper bound exactly."""
    from polylabel_rs_ray.pipelines.queries_ext128 import (
        q_customer_parttype_hhi,
    )

    d = q_customer_parttype_hhi(SF).to_pandas()
    n = d["n_items"].to_numpy().astype(np.int64)
    ss = d["sumsq"].to_numpy().astype(np.int64)
    k = d["n_types"].to_numpy().astype(np.int64)
    assert (ss <= n * n).all()
    assert (ss * k >= n * n).all()
    one = k == 1
    assert (ss[one] == (n * n)[one]).all()
    assert (k >= 1).all() and (n >= k).all()


def test_brand_share_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext128 import (
        SQL_BRAND_SHARE_BY_TYPE, q_brand_share_by_type,
    )

    d = q_brand_share_by_type(SF).to_pandas()
    o = con.execute(SQL_BRAND_SHARE_BY_TYPE).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_brand_share_brute(ray_session, con):
    """Pure-SQL-free twin: pandas groupby over the exact cent·percent
    units, argmax with the (−rev, brand) tie rule."""
    from polylabel_rs_ray.pipelines.queries_ext128 import (
        q_brand_share_by_type,
    )

    d = q_brand_share_by_type(SF).to_pandas().set_index("p_type")
    rows = con.execute("""
        SELECT p.p_type, p.p_brand,
               CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev
        FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    """).df()
    g = rows.groupby(["p_type", "p_brand"])["rev"].sum().reset_index()
    for pt, grp in g.groupby("p_type"):
        grp = grp.sort_values(["rev", "p_brand"],
                              ascending=[False, True])
        row = d.loc[pt]
        assert row["top_brand"] == grp["p_brand"].iloc[0]
        assert row["top_rev"] == grp["rev"].iloc[0]
        assert row["total_rev"] == grp["rev"].sum()
        assert row["top_rev"] <= row["total_rev"]
