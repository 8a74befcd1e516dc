"""Extension operators batch 16 (queries_ext15): per-stratum sampling,
HLL set algebra, bloom-prefiltered semi join."""

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
    for t in ["documents", "events", "orders", "lineitem"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_sample_per_lang_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext15 import (
        SAMPLE_K,
        SQL_SAMPLE_PER_LANG,
        q_sample_per_lang,
    )

    s = _compare(q_sample_per_lang, SQL_SAMPLE_PER_LANG, con)
    per = s.groupby("lang").size()
    n_langs = con.execute("SELECT COUNT(DISTINCT lang) FROM documents").fetchone()[0]
    assert len(per) == n_langs and (per <= SAMPLE_K).all()


def test_sample_per_lang_deterministic(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext15 import q_sample_per_lang

    a = q_sample_per_lang(SF).to_pandas().sort_values(["lang", "doc_id"])
    b = q_sample_per_lang(SF).to_pandas().sort_values(["lang", "doc_id"])
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


def test_hll_overlap_near_exact(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext15 import q_hll_type_overlap

    est = q_hll_type_overlap(SF).to_pandas().iloc[0]
    exact = con.execute("""
        SELECT
          (SELECT COUNT(DISTINCT user_id) FROM events WHERE event_type='view'),
          (SELECT COUNT(DISTINCT user_id) FROM events WHERE event_type='purchase'),
          (SELECT COUNT(DISTINCT user_id) FROM events
             WHERE event_type IN ('view','purchase')),
          (SELECT COUNT(*) FROM (
             SELECT user_id FROM events WHERE event_type='view'
             INTERSECT
             SELECT user_id FROM events WHERE event_type='purchase'))
    """).fetchone()
    names = ["approx_viewers", "approx_purchasers", "approx_either", "approx_both"]
    for name, true in zip(names, exact):
        tol = max(10, 0.1 * exact[2])  # HLL 4096-register error envelope
        assert abs(est[name] - true) <= tol, (name, est[name], true)


def test_bloom_semi_join_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext15 import (
        SQL_ORDERS_WITH_LINEITEMS_BLOOM,
        q_orders_with_lineitems_bloom,
    )

    b = _compare(q_orders_with_lineitems_bloom, SQL_ORDERS_WITH_LINEITEMS_BLOOM, con)
    assert b["o_orderkey"].is_unique
    # semi + anti partitions the orders table exactly
    total = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    anti = con.execute(
        "SELECT COUNT(*) FROM orders o WHERE NOT EXISTS "
        "(SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)"
    ).fetchone()[0]
    assert len(b) == total - anti
