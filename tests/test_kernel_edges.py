"""Kernel edge cases beyond the reference's suite: inputs that must never
panic a task (the reference would panic on some of these — lib.rs:64-66)."""

import math

import numpy as np

from polylabel_rs_ray.geom.kernel import polylabel_batch, polylabel_one


def test_zero_tolerance_converges_or_guards():
    # tolerance 0: subdivision continues until max_distance - best reaches
    # exact fp equality (converges to the true pole) or the MAX_POPS guard
    # fires; either way no hang and a near-optimal answer
    rings = [np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (0.0, 4.0)])]
    x, y, d, a, e = polylabel_one(rings, 0.0)
    assert e in ("", "max_iterations")
    assert abs(x - y) < 1e-9  # pole lies on the diagonal
    assert d > 0.58  # true clearance 2 - sqrt(2) ~ 0.5858


def test_huge_coordinates():
    big = 1e12
    rings = [np.array([(big, big), (big + 4, big), (big + 4, big + 4), (big, big + 4)])]
    x, y, d, a, e = polylabel_one(rings, 0.1)
    assert e == ""
    assert big < x < big + 4 and big < y < big + 4
    assert abs(d - 2.0) <= 0.1 + 1e-3  # center clearance of a 4x4 square


def test_hole_covering_whole_shell():
    # hole == shell -> zero net area in geo's signed sum only if orientations
    # oppose; same-orientation rings double the area instead — either way no
    # crash and a finite result
    shell = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    hole_cw = shell[::-1].copy()
    x, y, d, a, e = polylabel_one([shell, hole_cw], 0.5)
    assert a == 0.0  # opposite orientations cancel -> degenerate sentinel
    assert (x, y) == (0.0, 0.0)


def test_single_point_and_two_point_rings():
    assert polylabel_one([np.array([(1.0, 1.0)])], 0.5)[4] in ("", "empty_polygon")
    x, y, d, a, e = polylabel_one([np.array([(0.0, 0.0), (1.0, 1.0)])], 0.5)
    assert (x, y) == (0.0, 0.0)  # zero area -> sentinel


def test_mixed_batch_with_errors():
    polys = [
        [np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])],
        [np.array([(0.0, 0.0), (np.inf, 0.0), (1.0, 1.0)])],
        [],
        [np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)])],
    ]
    x, y, d, a, e = polylabel_batch(polys, np.array([0.1, 0.1, 0.1, 0.1]))
    assert e == ["", "nonfinite_coordinate", "empty_polygon", ""]
    assert not math.isnan(x[0]) and not math.isnan(x[3])
    assert math.isnan(x[1]) and math.isnan(x[2])


def test_mixed_distinct_large_polygons_batch():
    # several DIFFERENT large polygons (different edge/block counts) in one
    # batch exercise the ragged flat block scorer; results must equal the
    # one-at-a-time path exactly
    from polylabel_rs_ray.sources.fixtures import FIXTURES

    theta = np.linspace(0, 2 * np.pi, 700, endpoint=False)
    circle = np.column_stack([50 + 40 * np.cos(theta), 50 + 40 * np.sin(theta)])
    theta2 = np.linspace(0, 2 * np.pi, 450, endpoint=False)
    star_r = 30 + 10 * np.cos(7 * theta2)
    star = np.column_stack([200 + star_r * np.cos(theta2), 200 + star_r * np.sin(theta2)])
    norway = FIXTURES["norway_main"].rings[0]

    polys = [[circle], [norway], [star], [circle + 1000.0]]
    tols = np.array([0.5, 1.0, 0.5, 0.5])
    bx, by, bd, ba, be = polylabel_batch(polys, tols)
    for i in range(4):
        x, y, d, a, e = polylabel_one(polys[i], float(tols[i]))
        assert (bx[i], by[i], bd[i]) == (x, y, d), i
        assert be[i] == e == ""
    # circle pole = its centre within tolerance
    assert abs(bx[0] - 50) <= 0.5 and abs(by[0] - 50) <= 0.5
    assert abs(bd[0] - 40) <= 0.5 + 1e-9


def test_thin_sliver_polygon_seed_guard():
    # aspect ratio 1e11: the reference's seeding grid would be ~1e11 cells
    # (lib.rs:267-268) — the engine degrades to the guess + an error code
    rings = [np.array([(0.0, 0.0), (100.0, 0.0), (100.0, 1e-9), (0.0, 1e-9)])]
    x, y, d, a, e = polylabel_one(rings, 1e-10)
    assert e == "seed_grid_overflow"
    assert 0 <= x <= 100 and 0 <= y <= 1e-9  # guess still inside the bbox

def test_denormal_sliver_no_overflow():
    # regression (round-1 hypothesis falsifier): bbox width ~1.1e-308 makes
    # hgt/cell_size overflow float64 to inf; int(np.ceil(inf)) used to raise
    # OverflowError before the MAX_SEED_CELLS guard could fire
    rings = [np.array([(0.0, 0.0), (0.0, 2.0), (1.1125369292536007e-308, 0.0)])]
    x, y, d, a, e = polylabel_one(rings, 1.0)
    assert e == "seed_grid_overflow"
    assert np.isfinite(x) and np.isfinite(y)


def test_self_intersecting_label_in_grid_overhang():
    # regression (round-2 hypothesis falsifier): the seed grid tiles
    # ceil(w/cell_size) columns from bbox.min (lib.rs:267-279), so the last
    # column overhangs bbox.max by up to one cell.  For this degenerate
    # self-overlapping ring every distance is negative and an overhang cell
    # center wins: the label may exceed the bbox, but never the grid extent.
    rings = [np.array([(0.0, 0.0), (0.0, 11.0), (0.0, 0.5), (-46.0, 0.0)])]
    x, y, d, a, e = polylabel_one(rings, 1.0)
    assert e == "" and a != 0.0
    assert d <= 0  # no interior anywhere
    cell = 11.0  # min(w=46, h=11)
    assert -46.0 <= x <= -46.0 + cell * np.ceil(46.0 / cell)  # grid extent
    assert 0.0 <= y <= 0.0 + cell * np.ceil(11.0 / cell)
