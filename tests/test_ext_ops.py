"""Extension operators (queries_ext): bit-equal to their DuckDB oracles at
sf0.001 plus semantic invariants; geometry kernels (hull / Douglas-Peucker)
property-checked over every fixture and random rings."""

import duckdb
import numpy as np
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
    for t in ("events", "documents", "lineitem"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_spatial_ext_ops_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext import (
        _sql_bbox_overlap_join,
        _sql_doc_tile_coverage,
        _sql_nearest_zone,
        q_bbox_overlap_join,
        q_doc_tile_coverage,
        q_nearest_zone,
    )

    ov = _compare(q_bbox_overlap_join, _sql_bbox_overlap_join(), con)
    # overlap area is nonnegative; zero only for the degenerate fixtures
    # whose bbox itself has zero height (collinear/spike rings)
    assert (ov["overlap_area"] >= 0).all()
    import polylabel_rs_ray.sources.docs as dm

    nondegen = (ov["doc_num"] % dm.N_FIXTURES).isin([0, 6])  # l_shape, square
    assert (ov.loc[nondegen, "overlap_area"] > 0).all()

    nz = _compare(q_nearest_zone, _sql_nearest_zone(), con)
    assert nz["doc_num"].is_unique and (nz["dist2"] >= 0).all()

    cov = _compare(q_doc_tile_coverage, _sql_doc_tile_coverage(), con)
    # rasterization invariant: per-doc tile coverage sums to the bbox area
    from polylabel_rs_ray.pipelines.queries_ext import _sql_dyadic_bbox_cte

    boxes = con.execute(
        f"SELECT doc_num, (bx1-bx0)*(by1-by0) AS a FROM ({_sql_dyadic_bbox_cte()})"
    ).df().set_index("doc_num")["a"]
    got = cov.groupby("doc_num")["cov_area"].sum()
    assert np.allclose(got, boxes.loc[got.index], rtol=1e-12, atol=1e-9)


def test_geom_stats_ops_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext import (
        _sql_hull_stats,
        _sql_simplify_stats,
        q_hull_stats,
        q_simplify_stats,
    )

    h = _compare(q_hull_stats, _sql_hull_stats(), con)
    assert (h["hull_area"] >= 0).all()

    s = _compare(q_simplify_stats, _sql_simplify_stats(), con)
    assert (s["n_after"] <= s["n_before"]).all()
    assert (s["n_after"] >= 2).all()


def test_window_text_quantile_ext_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext import (
        SQL_NGRAM_JACCARD_PAIRS,
        SQL_USER_FIRST_LAST,
        _sql_value_quantiles_cont,
        q_ngram_jaccard_pairs,
        q_user_first_last,
        q_value_quantiles_cont,
    )

    fl = _compare(q_user_first_last, SQL_USER_FIRST_LAST, con)
    assert fl["user_id"].is_unique
    assert (fl["first_ts_us"] <= fl["last_ts_us"]).all()
    single = fl[fl["n_events"] == 1]
    assert (single["first_event_type"] == single["last_event_type"]).all()

    jc = _compare(q_ngram_jaccard_pairs, SQL_NGRAM_JACCARD_PAIRS, con)
    assert jc["jaccard"].between(0.0, 1.0).all()
    assert (jc["n_inter"] <= jc["n_union"]).all()
    # identical texts (if any pair dedups exactly) must score 1.0
    same = con.execute(
        "SELECT a.doc_id FROM documents a JOIN documents b "
        "ON b.doc_id = a.doc_id + 1 AND a.doc_id % 2 = 0 AND a.text = b.text"
    ).df()["doc_id"]
    if len(same):
        assert (jc.set_index("doc_a").loc[same, "jaccard"] == 1.0).all()

    qq = _compare(q_value_quantiles_cont, _sql_value_quantiles_cont(), con)
    assert (qq["lo_cents"] <= qq["hi_cents"]).all()
    lo_s = qq["lo_cents"] * qq["interp_den"]
    hi_s = qq["hi_cents"] * qq["interp_den"]
    assert ((qq["interp_num"] >= lo_s) & (qq["interp_num"] <= hi_s)).all()
    # interpolated quartile agrees with numpy's percentile on the cents
    vals = con.execute(
        "SELECT CAST(ROUND(value*100) AS BIGINT) c FROM events"
    ).df()["c"].to_numpy()
    for _, row in qq.iterrows():
        expect = np.percentile(vals, row["q"] * 100, method="linear")
        assert abs(row["interp_num"] / row["interp_den"] - expect) < 1e-6


# ---------------------------------------------------------------------------
# geometry-kernel properties (hull / Douglas-Peucker) on fixtures + random
# ---------------------------------------------------------------------------


def _hull_contains(hull: np.ndarray, pts: np.ndarray, tol: float = 1e-9) -> bool:
    """Every point is on or left of every CCW hull edge (within tol)."""
    if len(hull) < 3:
        return True
    a = hull
    b = np.roll(hull, -1, axis=0)
    ab = b - a
    # cross((b-a), (p-a)) >= -tol for all edges x points
    cr = ab[:, 0][:, None] * (pts[:, 1] - a[:, 1][:, None]) - ab[:, 1][:, None] * (
        pts[:, 0] - a[:, 0][:, None]
    )
    scale = np.abs(ab).max() * max(1.0, np.abs(pts).max())
    return bool((cr >= -tol * max(scale, 1.0)).all())


def test_convex_hull_properties():
    from polylabel_rs_ray.pipelines.geom_ops import convex_hull, ring_area
    from polylabel_rs_ray.sources.fixtures import FIXTURES

    for name, fx in FIXTURES.items():
        ext = fx.rings[0]
        h = convex_hull(ext)
        assert _hull_contains(h, ext), name
        if len(h) >= 3:
            assert ring_area(h) >= abs(ring_area(ext)) - 1e-6 * abs(ring_area(ext)), name
            # CCW orientation
            assert ring_area(h) > 0, name

    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.normal(size=(rng.integers(3, 60), 2)) * rng.uniform(0.1, 100)
        h = convex_hull(pts)
        assert _hull_contains(h, pts)
        if len(h) >= 3:
            assert ring_area(h) > 0


def test_convex_hull_degenerate():
    from polylabel_rs_ray.pipelines.geom_ops import convex_hull

    col = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    h = convex_hull(col)
    assert len(h) == 2  # collinear -> extreme segment
    assert np.allclose(h, [[0, 0], [3, 3]])
    one = convex_hull(np.array([[5.0, 5.0], [5.0, 5.0]]))
    assert len(one) == 1


def test_douglas_peucker_properties():
    from polylabel_rs_ray.pipelines.geom_ops import _seg_dists, douglas_peucker_mask, simplify_ring
    from polylabel_rs_ray.sources.fixtures import FIXTURES

    def check(pts, eps):
        keep = douglas_peucker_mask(pts, eps)
        assert keep[0] and keep[-1]
        anchors = np.flatnonzero(keep)
        # every dropped point within eps of its enclosing kept segment
        for i, j in zip(anchors, anchors[1:]):
            if j > i + 1:
                d = _seg_dists(pts[i + 1 : j], pts[i], pts[j])
                assert (d <= eps + 1e-12).all()

    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 50)
        check(pts, float(rng.uniform(0.01, 5.0)))

    for name, fx in FIXTURES.items():
        ext = np.asarray(fx.rings[0], dtype=np.float64)
        simp = simplify_ring(ext, 0.25)
        # subsequence of the (unclosed) input
        base = ext[:-1] if len(ext) >= 2 and np.all(ext[0] == ext[-1]) else ext
        bi = 0
        for p in simp:
            while bi < len(base) and not np.all(base[bi] == p):
                bi += 1
            assert bi < len(base), name
            bi += 1

    # norway at eps=0.25 must actually drop vertices (real simplification)
    nor = np.asarray(FIXTURES["norway_main"].rings[0], dtype=np.float64)
    # norway is in degrees; use a degree-scale eps
    simp = simplify_ring(nor, 0.01)
    assert 3 <= len(simp) < len(nor)
