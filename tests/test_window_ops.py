"""Bounded-window / range-join / sampling / rollup operators: bit-equal to
their DuckDB oracles at sf0.001 (the driver repeats this at sf0.01)."""

import duckdb
import pyarrow as pa

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


def test_window_rollup_ops_match_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries import (
        SQL_ATTRIBUTION_COUNTS,
        SQL_CANONICAL_DOCS,
        SQL_ROLLING_USER_STATS,
        SQL_ROLLUP_SALES,
        SQL_STRATIFIED_SAMPLE,
        SQL_VALUE_HISTOGRAM,
        q_attribution_counts,
        q_canonical_docs,
        q_rolling_user_stats,
        q_rollup_sales,
        q_stratified_sample,
        q_value_histogram,
    )

    con = duckdb.connect()
    for t in ("events", "documents", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")

    roll = _compare(q_rolling_user_stats, SQL_ROLLING_USER_STATS, con)
    # window semantics: every event appears once; counts capped at 3
    assert roll["roll_n"].between(1, 3).all()
    assert roll["event_id"].is_unique

    attr = _compare(q_attribution_counts, SQL_ATTRIBUTION_COUNTS, con)
    # left semantics: every purchase is present (zero-view ones included)
    n_purch = con.execute(
        "SELECT COUNT(*) FROM events WHERE event_type='purchase'"
    ).fetchone()[0]
    assert len(attr) == n_purch and (attr["n_views_1h"] >= 0).all()

    canon = _compare(q_canonical_docs, SQL_CANONICAL_DOCS, con)
    assert canon["keep_doc_id"].is_unique

    samp = _compare(q_stratified_sample, SQL_STRATIFIED_SAMPLE, con)
    # stratified rates actually differ: 'en' keeps < others proportionally
    frac = samp.groupby("lang").size() / con.execute(
        "SELECT lang, COUNT(*) n FROM documents GROUP BY lang"
    ).df().set_index("lang")["n"]
    assert frac["en"] < 0.40  # ~25% kept vs ~50% for the rest

    _compare(q_value_histogram, SQL_VALUE_HISTOGRAM, con)

    roll_sales = _compare(q_rollup_sales, SQL_ROLLUP_SALES, con)
    _check_rollup(roll_sales)


def _check_rollup(roll_sales):
    # rollup invariant: the grand total row equals the sum of the finest level
    fine = roll_sales[(roll_sales.l_returnflag != "ALL")
                      & (roll_sales.l_linestatus != "ALL")]
    total = roll_sales[(roll_sales.l_returnflag == "ALL")
                       & (roll_sales.l_linestatus == "ALL")]
    assert len(total) == 1
    assert int(total["revenue_cents"].iloc[0]) == int(fine["revenue_cents"].sum())


def test_distinct_and_percentile_ops_match_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries import (
        SQL_DISTINCT_USERS_PER_TYPE,
        SQL_LONG_DOCS,
        q_distinct_users_per_type,
        q_long_docs,
    )

    con = duckdb.connect()
    for t in ("events", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")

    dist = _compare(q_distinct_users_per_type, SQL_DISTINCT_USERS_PER_TYPE, con)
    assert (dist["n_users"] <= dist["n_events"]).all()

    long_docs = _compare(q_long_docs, SQL_LONG_DOCS, con)
    # ~10% of the corpus survives the P90 filter (quantile_disc semantics)
    n = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert 0 < len(long_docs) <= 0.2 * n


def test_left_outer_join_matches_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries import (
        SQL_ORDER_FULFILLMENT,
        q_order_fulfillment,
    )

    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    d = _compare(q_order_fulfillment, SQL_ORDER_FULFILLMENT, con)
    # left semantics: every order present; the zero-filled rows are exactly
    # the anti-join set
    n_orders = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    n_empty = con.execute("""SELECT COUNT(*) FROM orders o WHERE NOT EXISTS
        (SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)""").fetchone()[0]
    assert len(d) == n_orders
    assert (d["n_items"] == 0).sum() == n_empty


def test_pivot_and_grouped_quantile_match_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries import (
        SQL_MEDIAN_VALUE_PER_TYPE,
        SQL_USER_EVENT_PIVOT,
        q_median_value_per_type,
        q_user_event_pivot,
    )

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")

    piv = _compare(q_user_event_pivot, SQL_USER_EVENT_PIVOT, con)
    # pivot invariant: per-type counts sum to the total
    parts = piv[[c for c in piv.columns if c.startswith("n_") and c != "n_total"]]
    assert (parts.sum(axis=1) == piv["n_total"]).all()

    med = _compare(q_median_value_per_type, SQL_MEDIAN_VALUE_PER_TYPE, con)
    assert len(med) == 5  # one exact median per event type


def test_hll_sketch_close_to_exact(ray_session):
    from polylabel_rs_ray.pipelines.queries import q_approx_distinct_users

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    exact = con.execute(
        "SELECT event_type, COUNT(DISTINCT user_id) n FROM events GROUP BY 1"
    ).df().set_index("event_type")["n"]
    est = q_approx_distinct_users(SF).to_pandas().set_index("event_type")["approx_users"]
    assert set(est.index) == set(exact.index)
    for k in exact.index:
        err = abs(est[k] - exact[k])
        rel = err / max(exact[k], 1)
        # 4096 registers -> ~1.6% typical relative error; at the tiny
        # sf0.001 cardinality (~15 users) a single register collision is
        # +-1 absolute, so allow that regime explicitly
        assert err <= 2 or rel < 0.05, (k, est[k], exact[k])


def test_set_op_and_multiway_join_match_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries import (
        SQL_REVENUE_BY_REGION,
        SQL_VIEW_ONLY_HOURS,
        q_revenue_by_region,
        q_view_only_hours,
    )

    con = duckdb.connect()
    for t in ("events", "orders", "customer", "nation", "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")

    hours = _compare(q_view_only_hours, SQL_VIEW_ONLY_HOURS, con)
    assert (hours["hour_us"] % (3600 * 1_000_000) == 0).all()

    rev = _compare(q_revenue_by_region, SQL_REVENUE_BY_REGION, con)
    # every order lands in exactly one region
    n_orders = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    assert rev["n_orders"].sum() == n_orders


def test_doc_chunks_match_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries import SQL_DOC_CHUNKS, q_doc_chunks

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    d = _compare(q_doc_chunks, SQL_DOC_CHUNKS, con)
    # windowing invariants: full coverage with 16-token overlap
    assert (d["end_tok"] - d["start_tok"] <= 64).all()
    assert (d.groupby("doc_id")["chunk_idx"].min() == 0).all()
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert d["doc_id"].nunique() == n_docs  # every doc yields >= 1 chunk
