"""Extension batch 150: weekend premium."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders",):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_premium_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext150 import (
        SQL_WEEKEND_ORDER_PREMIUM, q_weekend_order_premium,
    )

    d = q_weekend_order_premium(SF).to_pandas()
    o = con.execute(SQL_WEEKEND_ORDER_PREMIUM).df()
    assert len(d) == len(o) == 2
    assert _norm(d).equals(_norm(o))


def test_premium_reconciles(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext150 import (
        q_weekend_order_premium,
    )

    d = q_weekend_order_premium(SF).to_pandas()
    n, rev = con.execute("""
        SELECT COUNT(*), SUM(CAST(ROUND(o_totalprice*100) AS BIGINT))
        FROM orders
    """).fetchone()
    assert int(d["n_orders"].sum()) == n
    assert int(d["rev_cents"].sum()) == rev
    # weekdays outnumber weekend days 5:2 on a uniform date generator
    w = d.set_index("is_weekend")
    assert w.loc[0, "n_orders"] > w.loc[1, "n_orders"]
