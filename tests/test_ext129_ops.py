"""Extension batch 129: abandoned views (windowed anti-join) + min
vertex distance to the next fixture."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_abandoned_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext129 import (
        SQL_ABANDONED_VIEW_COUNTS, q_abandoned_view_counts,
    )

    d = q_abandoned_view_counts(SF).to_pandas()
    o = con.execute(SQL_ABANDONED_VIEW_COUNTS).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_abandoned_brute_and_partition_invariance(ray_session, con):
    """Pure-Python interval twin over every view, plus n_parts=1 ==
    n_parts=8 (partition-boundary proof for the packed-key probe)."""
    from polylabel_rs_ray.pipelines.queries_ext129 import (
        WINDOW_US, q_abandoned_view_counts,
    )

    d = q_abandoned_view_counts(SF).to_pandas().set_index("user_id")
    ev = con.execute("""
        SELECT user_id, epoch_us(ts) AS t, event_type FROM events
        WHERE event_type IN ('view', 'purchase')
    """).df()
    views: dict = {}
    purch: dict = {}
    for r in ev.itertuples():
        (views if r.event_type == "view" else purch).setdefault(
            r.user_id, []).append(r.t)
    for uid, vs in views.items():
        ps = sorted(purch.get(uid, []))
        ab = sum(1 for t in vs
                 if not any(t < p <= t + WINDOW_US for p in ps))
        row = d.loc[uid]
        assert row["n_views"] == len(vs)
        assert row["n_abandoned"] == ab
    assert set(d.index) == set(views)
    d1 = q_abandoned_view_counts(SF, n_parts=1).to_pandas()
    d8 = q_abandoned_view_counts(SF, n_parts=8).to_pandas()
    assert _norm(d1).equals(_norm(d8))


def test_min_dist_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext129 import (
        _sql_fixture_min_vertex_dist, q_fixture_min_vertex_dist,
    )

    d = q_fixture_min_vertex_dist(SF).to_pandas()
    o = con.execute(_sql_fixture_min_vertex_dist()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_min_dist_vs_hausdorff(ray_session):
    """min-min <= max-min (directed Hausdorff) on every doc, tie count
    >= 1, and per-fixture constancy."""
    from polylabel_rs_ray.pipelines.queries_ext118 import (
        q_hausdorff_fixture_pairs,
    )
    from polylabel_rs_ray.pipelines.queries_ext129 import (
        q_fixture_min_vertex_dist,
    )

    d = q_fixture_min_vertex_dist(SF).to_pandas().set_index("doc_num")
    h = q_hausdorff_fixture_pairs(SF).to_pandas().set_index("doc_num")
    j = d.join(h, rsuffix="_h")
    assert (j["min_d2"] <= j["haus_sq_fwd"]).all()
    assert (j["n_min_pairs"] >= 1).all()
    for _, g in d.groupby("fixture_idx"):
        assert g["min_d2"].nunique() == 1
        assert g["n_min_pairs"].nunique() == 1
