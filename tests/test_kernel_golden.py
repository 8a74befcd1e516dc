"""Bit parity of the Polylabel kernel with a frozen set of results.

``tests/data/kernel_golden.npz`` holds, for every polygon that
``golden_inputs()`` builds, the label x, y, label_dist and area as raw
float64 bits plus the error string.  The file was written by the numpy
kernel that preceded the compiled one; any change to a search, scoring or
prep operation that moves a single bit fails here.

Regenerate only when a result change is intended:
``PYTHONPATH=. python tests/test_kernel_golden.py`` from the repo root.
"""

from pathlib import Path

import numpy as np

from polylabel_rs_ray.geom.kernel import polylabel_batch
from polylabel_rs_ray.sources.fixtures import FIXTURE_CYCLE, FIXTURES

GOLDEN = Path(__file__).resolve().parent / "data" / "kernel_golden.npz"


def golden_inputs() -> tuple[list, np.ndarray]:
    polys, tols = [], []

    def add(rings, tol):
        polys.append(rings)
        tols.append(tol)

    # the fixtures at three tolerances with small offsets, plus random
    # (possibly self-intersecting) rings
    for i in range(60):
        f = FIXTURES[FIXTURE_CYCLE[i % len(FIXTURE_CYCLE)]]
        add([r + np.array([i % 5, i % 3]) for r in f.rings], [1.0, 0.1, 0.01][i % 3])
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 16))
        add([rng.uniform(-50, 50, size=(n, 2))], float(rng.uniform(0.01, 5.0)))
    # sliver past the seed-grid guard, denormal-width sliver, self-overlap
    add([np.array([(0.0, 0.0), (100.0, 0.0), (100.0, 1e-9), (0.0, 1e-9)])], 1e-10)
    add([np.array([(0.0, 0.0), (0.0, 2.0), (1.1125369292536007e-308, 0.0)])], 1.0)
    add([np.array([(0.0, 0.0), (0.0, 11.0), (0.0, 0.5), (-46.0, 0.0)])], 1.0)
    # zero tolerance: the open L-shape converges; the holed hexagon runs
    # into MAX_POPS and keeps its best so far
    ell = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (0.0, 4.0)])
    add([ell], 0.0)
    add(FIXTURES["l_shape"].rings, 0.0)
    add(FIXTURES["hexagon_two_holes"].rings, 0.0)
    # f32 geometry (upcast per ring)
    for name in ("l_shape", "concave_poly2", "hexagon_two_holes"):
        f = FIXTURES[name]
        add([r.astype(np.float32) for r in f.rings], f.tolerance)
    # many-edge polygons with different block counts in one batch
    th = np.linspace(0, 2 * np.pi, 700, endpoint=False)
    circle = np.column_stack([50 + 40 * np.cos(th), 50 + 40 * np.sin(th)])
    th2 = np.linspace(0, 2 * np.pi, 450, endpoint=False)
    r2 = 30 + 10 * np.cos(7 * th2)
    star = np.column_stack([200 + r2 * np.cos(th2), 200 + r2 * np.sin(th2)])
    add([circle], 0.5)
    add([star], 0.5)
    add([circle + 1000.0], 0.5)
    # screened and degenerate rows
    add([np.array([(0.0, 0.0), (np.inf, 0.0), (1.0, 1.0)])], 0.1)
    add([], 0.1)
    shell = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    add([shell, shell[::-1].copy()], 0.5)
    return polys, np.asarray(tols, dtype=np.float64)


def _run() -> dict[str, np.ndarray]:
    polys, tols = golden_inputs()
    x, y, d, a, e = polylabel_batch(polys, tols)
    bits = {k: np.asarray(v, dtype=np.float64).view(np.uint64)
            for k, v in (("x", x), ("y", y), ("dist", d), ("area", a))}
    return {**bits, "err": np.asarray(e, dtype=str)}


def test_kernel_reproduces_golden_bits():
    want = np.load(GOLDEN)
    got = _run()
    assert len(got["x"]) == len(want["x"])
    for k in ("x", "y", "dist", "area", "err"):
        bad = np.flatnonzero(got[k] != want[k])
        assert bad.size == 0, f"{k} differs at rows {bad.tolist()}"


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, **_run())
    print(f"wrote {GOLDEN}")
