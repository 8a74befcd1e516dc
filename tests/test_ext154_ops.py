"""Extension batch 154: cohort LTV."""

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


def test_ltv_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext154 import (
        SQL_ORDER_COHORT_LTV, q_order_cohort_ltv,
    )

    d = q_order_cohort_ltv(SF).to_pandas()
    o = con.execute(SQL_ORDER_COHORT_LTV).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_ltv_reconciles(ray_session, con):
    """Triangle mass equals the orders table: total count and cents, and
    every cohort's offset-0 cell exists (a customer's first order lands
    in their own cohort month by construction)."""
    from polylabel_rs_ray.pipelines.queries_ext154 import q_order_cohort_ltv

    d = q_order_cohort_ltv(SF).to_pandas()
    n, cents = con.execute("""
        SELECT COUNT(*), SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
        FROM orders""").fetchone()
    assert int(d["n_orders"].sum()) == n
    assert int(d["rev_cents"].sum()) == cents
    assert (d["month_offset"] >= 0).all()
    zero = set(d.loc[d["month_offset"] == 0, "cohort_month"])
    assert set(d["cohort_month"]) == zero
