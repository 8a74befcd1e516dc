"""Extension operators batch 14 (queries_ext13): relational completeness."""

import duckdb
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _compare(q, sql, con):
    res = q(SF)
    d = res.to_pandas() if hasattr(res, "to_pandas") else res
    if isinstance(d, pa.Table):
        d = d.to_pandas()
    o = con.execute(sql).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b), sql
    return a


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["lineitem", "events", "orders"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_grouping_sets_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext13 import (
        SQL_GROUPING_SETS_SALES,
        q_grouping_sets_sales,
    )

    g = _compare(q_grouping_sets_sales, SQL_GROUPING_SETS_SALES, con)
    # the grand-total row re-aggregates exactly
    total = con.execute("SELECT COUNT(*) FROM lineitem").fetchone()[0]
    grand = g[(g["l_returnflag"] == "ALL") & (g["l_linestatus"] == "ALL")]
    assert len(grand) == 1 and grand["n_items"].iloc[0] == total
    # no (ls-only) rows: the set list is NOT a cube
    assert len(g[(g["l_returnflag"] == "ALL") & (g["l_linestatus"] != "ALL")]) == 0


def test_user_second_event_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext13 import (
        SQL_USER_SECOND_EVENT,
        q_user_second_event,
    )

    s = _compare(q_user_second_event, SQL_USER_SECOND_EVENT, con)
    assert s["user_id"].is_unique
    multi = con.execute(
        "SELECT COUNT(*) FROM (SELECT user_id FROM events GROUP BY user_id "
        "HAVING COUNT(*) >= 2)"
    ).fetchone()[0]
    assert len(s) == multi


def test_orders_above_cust_avg_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext13 import (
        SQL_ORDERS_ABOVE_CUST_AVG,
        q_orders_above_cust_avg,
    )

    a = _compare(q_orders_above_cust_avg, SQL_ORDERS_ABOVE_CUST_AVG, con)
    assert a["o_orderkey"].is_unique
    # a single-order customer can never beat their own average
    singles = con.execute(
        "SELECT o_orderkey FROM orders QUALIFY COUNT(*) OVER "
        "(PARTITION BY o_custkey) = 1"
    ).df()
    assert not set(a["o_orderkey"]) & set(singles["o_orderkey"])


def test_users_all_types_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext13 import (
        _sql_users_all_types,
        q_users_all_types,
    )

    u = _compare(q_users_all_types, _sql_users_all_types(), con)
    assert u["user_id"].is_unique
