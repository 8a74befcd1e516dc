"""Kernel parity with the reference's own test suite.

Every assertion below mirrors a test the reference runs in CI
(``cargo test`` with default features — /root/reference/.github/workflows/rust.yml:52).
Those are asserted BIT-EXACT.  The FFI hexagon fixture
(``src/ffi.rs:118-141``, expected (3.125, 2.875)) is feature-gated
(``#[cfg(feature = "ffi")]``, lib.rs:20-25) and therefore NOT exercised by the
reference's CI; the value is stale relative to the current block-skip
``signed_distance``: (3.125, 2.875) lies exactly ON the first hole's edge
(clearance ~1e-16), so under the current algorithm it can never win the
strict ``distance >`` best-cell update (lib.rs:382).  For it we assert the
north-star criterion instead: containment plus clearance within the tolerance
of the true optimum.
"""

import math

import numpy as np
import pytest

from polylabel_rs_ray.geom.kernel import (
    polygon_centroid,
    polygon_signed_area,
    polylabel_batch,
    pack_polygons,
    polylabel_one,
    signed_distance,
)
from polylabel_rs_ray.sources.fixtures import FIXTURES


def contains(rings, x, y):
    """Even-odd containment (scalar reference check)."""
    inside = False
    for ring in rings:
        r = np.asarray(ring)
        if (r[0] == r[-1]).all():
            r = r[:-1]
        n = len(r)
        for i in range(n):
            ax, ay = r[i]
            bx, by = r[(i + 1) % n]
            if (ay > y) != (by > y) and x < (bx - ax) * (y - ay) / (by - ay) + ax:
                inside = not inside
    return inside


# --- exact assertions mirroring the reference's CI-run tests ---------------

@pytest.mark.parametrize(
    "name",
    ["l_shape", "shapely_poly1", "london_poly3", "square_with_hole"],
)
def test_exact_fixture(name):
    fx = FIXTURES[name]
    x, y, d, a, e = polylabel_one(fx.rings, fx.tolerance)
    assert (x, y) == fx.expected, f"{name}: got ({x!r}, {y!r})"
    assert e == ""
    assert d > 0


@pytest.mark.parametrize("name", ["degenerate_collinear", "degenerate_spike"])
def test_degenerate_sentinels(name):
    # lib.rs:452-465 — zero signed area -> exactly (0, 0)
    fx = FIXTURES[name]
    x, y, d, a, e = polylabel_one(fx.rings, fx.tolerance)
    assert (x, y) == (0.0, 0.0)
    assert a == 0.0


def test_concave_containment():
    # lib.rs:418-425 — centroid falls outside; result must be inside
    fx = FIXTURES["concave_poly2"]
    x, y, d, a, e = polylabel_one(fx.rings, fx.tolerance)
    assert contains(fx.rings, x, y)
    assert d > 0


def test_zero_extent_bbox_sentinel():
    # lib.rs:348-352 — min bbox dimension == 0 but area != 0 is unreachable
    # with real rings, so craft area!=0 via duplicate traversal... the guard
    # itself: a vertical degenerate ring has zero area -> (0,0) wins first.
    x, y, d, a, e = polylabel_one([np.array([(2.0, 1.0), (2.0, 5.0), (2.0, 3.0)])], 1.0)
    assert (x, y) == (0.0, 0.0)  # area guard fires first, as in the reference


def test_hexagon_two_holes_property():
    # src/ffi.rs:118-141 expects (3.125, 2.875), but that test is
    # feature-gated out of CI and the point lies exactly on a hole edge
    # (clearance ~0) — impossible under the current strict best update.
    # Assert the north-star property: inside, and within tolerance of the
    # true optimum clearance (~0.5, just below the hole base).
    fx = FIXTURES["hexagon_two_holes"]
    x, y, d, a, e = polylabel_one(fx.rings, fx.tolerance)
    assert contains(fx.rings, x, y)
    assert d >= 0.5 - fx.tolerance
    # deterministic: pin the value our engine produces so regressions surface
    assert (x, y) == (2.515625, 2.828125)


def test_norway_large_polygon():
    # benches/benchmark.rs:27-33 — 8854-vertex polygon, tolerance 1.0
    fx = FIXTURES["norway_main"]
    x, y, d, a, e = polylabel_one(fx.rings, fx.tolerance)
    assert contains(fx.rings, x, y)
    assert d > 0
    assert e == ""


def test_nonfinite_prescreen():
    # reference panics on NaN (lib.rs:64-66); engine returns an error row
    rings = [np.array([(0.0, 0.0), (4.0, 0.0), (np.nan, 1.0), (0.0, 4.0)])]
    x, y, d, a, e = polylabel_one(rings, 0.1)
    assert math.isnan(x) and math.isnan(y)
    assert e == "nonfinite_coordinate"


def test_empty_polygon():
    x, y, d, a, e = polylabel_one([], 0.1)
    assert e == "empty_polygon"


def test_open_vs_closed_rings_identical():
    # geo's Polygon::new closes rings; open and closed input must agree
    closed = FIXTURES["l_shape"].rings
    open_ring = [closed[0][:-1]]
    assert polylabel_one(closed, 0.1) == polylabel_one(open_ring, 0.1)


def test_batch_matches_one_by_one():
    # lockstep batching across polygons must be bit-identical to the
    # one-at-a-time path (same per-polygon pop/prune sequence)
    names = list(FIXTURES)
    polys = [FIXTURES[n].rings for n in names]
    tols = np.array([FIXTURES[n].tolerance for n in names])
    bx, by, bd, ba, be = polylabel_batch(polys, tols)
    for i, n in enumerate(names):
        x, y, d, a, e = polylabel_one(FIXTURES[n].rings, FIXTURES[n].tolerance)
        assert (bx[i], by[i]) == (x, y) or (math.isnan(bx[i]) and math.isnan(x)), n
        assert be[i] == e, n


def test_translation_exactness_dyadic():
    # integer translation of dyadic fixtures shifts the label exactly —
    # the invariant the SQL oracle queries rely on
    from polylabel_rs_ray.sources.fixtures import DYADIC_FIXTURES

    for name in DYADIC_FIXTURES:
        fx = FIXTURES[name]
        for dx, dy in [(371.0, 742.0), (-55.0, 13.0), (1000.0, -999.0)]:
            moved = [r + np.array([dx, dy]) for r in fx.rings]
            x0, y0, d0, a0, e0 = polylabel_one(fx.rings, fx.tolerance)
            x1, y1, d1, a1, e1 = polylabel_one(moved, fx.tolerance)
            if name.startswith("degenerate"):
                assert (x1, y1) == (0.0, 0.0)  # sentinel is absolute, not shifted
            else:
                assert (x1, y1) == (x0 + dx, y0 + dy), name
                assert d1 == d0
            assert a1 == a0


def test_signed_area_and_centroid():
    # doctest lib.rs:329: L-shape centroid == (1.3571428571428572, ...)
    fx = FIXTURES["l_shape"]
    c = polygon_centroid([np.asarray(r) for r in fx.rings])
    assert c == (1.3571428571428572, 1.3571428571428572)
    assert polygon_signed_area([np.asarray(fx.rings[0])]) == 7.0


def test_queue_pop_order(monkeypatch):
    # mirrors the reference's test_queue (lib.rs:474-500) through the search
    # itself: with MAX_POPS = k the loop stops after k pops and keeps its
    # best so far.  U-shape seed cells (x outer, y inner): (1,1) d=1,
    # (3,1) d=0 on the notch floor, (5,1) d=1; guesses: centroid (3, 0.9)
    # d=0.1, bbox centre (3,1) d=0
    import polylabel_rs_ray.geom.kernel as K

    u = [np.array([(0, 0), (6, 0), (6, 2), (4, 2), (4, 1), (2, 1), (2, 2), (0, 2)], float)]
    monkeypatch.setattr(K, "MAX_POPS", 0)
    # no pop: the bbox guess wins because its distance is LOWER (lib.rs:370-374)
    x, y, d, _, e = polylabel_one(u, 0.1)
    assert (x, y, e) == (3.0, 1.0, "max_iterations")
    monkeypatch.setattr(K, "MAX_POPS", 1)
    # the first pop has the largest max_distance; of the two tied cells the
    # one pushed first ((1,1), x outer) pops first
    x, y, d, _, e = polylabel_one(u, 0.1)
    assert (x, y, d, e) == (1.0, 1.0, 1.0, "max_iterations")
    monkeypatch.setattr(K, "MAX_POPS", 200_000)
    assert polylabel_one(u, 0.1)[4] == ""


def test_signed_distance_signs():
    fx = FIXTURES["l_shape"]
    d = signed_distance(
        np.array([0.5, 2.0, -1.0]),
        np.array([0.5, 2.0, -1.0]),
        np.array([0, 0, 0]),
        pack_polygons([fx.rings]),
    )
    assert d[0] == 0.5  # inside the L
    assert d[1] == -1.0  # in the notch
    assert d[2] == -math.sqrt(2.0)  # outside entirely, nearest the corner


def test_signed_distance_rejects_bad_indices():
    # the compiled scorer trusts its indices, so they are checked first
    packed = pack_polygons([FIXTURES["l_shape"].rings])
    one = np.array([0.5])
    with pytest.raises(IndexError):
        signed_distance(one, one, np.array([1]), packed)
    with pytest.raises(ValueError):
        signed_distance(one, np.array([0.5, 0.5]), np.array([0]), packed)
