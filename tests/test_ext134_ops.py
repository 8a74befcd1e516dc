"""Extension batch 134: balance-decile lift table + hourly islands."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("customer", "orders", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_deciles_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext134 import (
        SQL_BALANCE_DECILE_ORDER_STATS, q_balance_decile_order_stats,
    )

    d = q_balance_decile_order_stats(SF).to_pandas()
    o = con.execute(SQL_BALANCE_DECILE_ORDER_STATS).df()
    assert len(d) == len(o) == 10
    assert _norm(d).equals(_norm(o))


def test_deciles_reconcile(ray_session, con):
    """Bucket totals reconcile with the base tables; buckets are
    near-balanced (each within ±1 of n/10 apart from tie clumps)."""
    from polylabel_rs_ray.pipelines.queries_ext134 import (
        q_balance_decile_order_stats,
    )

    d = q_balance_decile_order_stats(SF).to_pandas()
    n_cust, n_ord, rev = con.execute("""
        SELECT (SELECT COUNT(*) FROM customer),
               (SELECT COUNT(*) FROM orders),
               (SELECT SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                FROM orders)
    """).fetchone()
    assert int(d["n_customers"].sum()) == n_cust
    assert int(d["n_orders"].sum()) == n_ord
    assert int(d["rev_cents"].sum()) == rev
    assert (d["n_customers"] > 0).all()


def test_islands_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext134 import (
        SQL_HOURLY_ISLANDS_PER_TYPE, q_hourly_islands_per_type,
    )

    d = q_hourly_islands_per_type(SF).to_pandas()
    o = con.execute(SQL_HOURLY_ISLANDS_PER_TYPE).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_islands_brute(ray_session, con):
    """Pure-Python run scan twin over sorted observed hours."""
    from polylabel_rs_ray.pipelines.queries_ext134 import (
        q_hourly_islands_per_type,
    )

    d = q_hourly_islands_per_type(SF).to_pandas().set_index("event_type")
    hourly = con.execute("""
        SELECT DISTINCT event_type, epoch_us(ts) // 3600000000 AS h
        FROM events ORDER BY 1, 2
    """).df()
    for et, g in hourly.groupby("event_type"):
        hs = sorted(g["h"])
        runs = []
        cur = 1
        for a, b in zip(hs, hs[1:]):
            if b - a == 1:
                cur += 1
            else:
                runs.append(cur)
                cur = 1
        runs.append(cur)
        row = d.loc[et]
        assert row["n_islands"] == len(runs)
        assert row["longest_run"] == max(runs)
        # islands partition the observed hours
        assert sum(runs) == len(hs)
