"""Pole-of-inaccessibility (Polylabel) kernel: numpy prep, compiled search.

Semantics reproduce urschrei/polylabel-rs (``lib.rs:336-398``):

* degenerate polygon with zero signed area   -> (0, 0)          (lib.rs:340-343)
* degenerate zero-extent bounding box        -> bbox.min()      (lib.rs:348-352)
* otherwise: best-first quadtree search over cells scored by the signed
  distance from the cell centre to the polygon outline (positive inside,
  negative outside; even-odd ray cast for containment, min point-to-segment
  distance for magnitude — lib.rs:163-233), seeded with the area-weighted
  centroid and the bbox centre (lib.rs:361-374) plus a grid of
  ``min(bbox.w, bbox.h)``-sized cells (lib.rs:257-287); a popped cell is
  subdivided into 4 children unless ``max_distance - best <= tolerance``
  (lib.rs:380-394).  ``max_distance = distance + half_extent*sqrt(2)``
  (lib.rs:47-57).

Split of the work:

* numpy, per row (``polylabel_batch``): ring normalisation, the finite
  screen, shoelace area and centroid (``np.sum`` pairwise summation — their
  bits reach the ``area`` column and the centroid seed), bbox, the
  zero-area / zero-extent guards and the seed-grid overflow guard.
* C (``polylabel.c``), one call per batch: per polygon, edges grouped into
  blocks of 32 with a bbox each (lib.rs:90-161), the signed distance with
  block skipping, the seed grid, and one best-first heap loop.  Heap order
  is (max ``max_distance``, then earliest push); best moves only on a
  strictly larger distance; a polygon that pops more than ``MAX_POPS``
  cells keeps its best so far and reports ``max_iterations``.
  ``signed_distance`` exposes the same compiled scorer to the join stages.

The C file is compiled with the system gcc on first import (flags below,
no fp contraction, so no fused multiply-add changes a bit) into
``_build/`` next to it, under a name derived from the source and flags,
and loaded through cffi's ABI mode.  NaN/non-finite coordinates would
panic the reference (``partial_cmp().unwrap()``, lib.rs:64-66); here they
are pre-screened into an error code and a (NaN, NaN) label, mirroring the
FFI error convention (ffi.rs:78-80).
"""

from __future__ import annotations

import math
import os
import subprocess
import tempfile
from hashlib import sha256
from typing import NamedTuple

import cffi
import numpy as np

MAX_POPS = 200_000  # safety valve (reference has none; guards tiny tolerances)

# error codes (label_error column values; None/"" = ok)
ERR_OK = ""
ERR_NONFINITE = "nonfinite_coordinate"
ERR_EMPTY = "empty_polygon"
ERR_MAXITER = "max_iterations"
ERR_SEED_OVERFLOW = "seed_grid_overflow"
MAX_SEED_CELLS = 1 << 22  # extreme-aspect polygons: the reference's seeding
# grid is ceil(w/cs)*ceil(h/cs) cells with cs = min(w, h) (lib.rs:267-268),
# which explodes for slivers; the engine degrades to an error row instead

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_HERE, "polylabel.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CDEF = """
int pl_label(int64_t n, const int64_t *which, const double *xy,
             const int64_t *ring_off, const int64_t *poly_off,
             const double *par, int64_t max_pops, double *out);
int pl_signed_distance(int64_t npoly, const double *xy, const int64_t *ring_off,
                       const int64_t *poly_off, int64_t n, const double *px,
                       const double *py, const int64_t *poly, double *out);
"""


def _load_lib():
    """Build ``polylabel.c`` once per source+flags digest, then dlopen it.
    The library is written under a temporary name and renamed into place,
    so a process importing concurrently never loads a partial file."""
    with open(_SRC, "rb") as f:
        digest = sha256(f.read() + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    build = os.path.join(_HERE, "_build")
    lib_path = os.path.join(build, f"polylabel-{digest}.so")
    if not os.path.exists(lib_path):
        os.makedirs(build, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=build, suffix=".tmp")
        os.close(fd)
        try:
            res = subprocess.run(["gcc", *_CFLAGS, "-o", tmp, _SRC, "-lm"],
                                 capture_output=True, text=True)
            if res.returncode:
                raise ImportError(f"gcc failed to build {_SRC}:\n{res.stderr}")
            os.chmod(tmp, 0o755)  # mkstemp made it owner-only
            os.replace(tmp, lib_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    return ffi, ffi.dlopen(lib_path)


_ffi, _lib = _load_lib()


def _buf(ctype: str, a: np.ndarray):
    return _ffi.from_buffer(ctype, a)


def normalize_ring(ring: np.ndarray) -> np.ndarray:
    """Drop the duplicate closing vertex if present; edges are cyclic."""
    if len(ring) >= 2 and ring[0, 0] == ring[-1, 0] and ring[0, 1] == ring[-1, 1]:
        return ring[:-1]
    return ring


def _cyc(v: np.ndarray) -> np.ndarray:
    """v shifted by -1 cyclically (same values as np.roll(v, -1), cheaper)."""
    return np.concatenate([v[1:], v[:1]])


def ring_signed_area2(ring: np.ndarray) -> float:
    """Twice the shoelace signed area of a ring (open, cyclic)."""
    x = ring[:, 0]
    y = ring[:, 1]
    return float(np.sum(x * _cyc(y) - _cyc(x) * y))


def polygon_signed_area(rings: list[np.ndarray]) -> float:
    """Sum of ring signed areas (exterior + interiors, orientation as given) —
    matches geo's ``Polygon::signed_area`` used by the zero-area guard
    (lib.rs:341)."""
    return sum(ring_signed_area2(r) for r in rings) / 2.0


def polygon_centroid(rings: list[np.ndarray]) -> tuple[float, float] | None:
    """Area-weighted polygon centroid; interior rings subtract (geo
    ``Centroid`` semantics, used as the seed guess at lib.rs:361-364).

    Returns None when the total weight is zero (degenerate)."""
    return _centroid_from_cache([_ring_terms(r) for r in rings])


def _ring_terms(ring: np.ndarray):
    """Per-ring shoelace scratch shared by the area and centroid kernels:
    (x, y, x1, y1, cross, 2*signed_area).  Computing it once per ring is
    the batch prep's hottest micro-saving; every consumer replays the
    exact fp op order of the original standalone kernels (bit-parity
    with the reference fixtures depends on it)."""
    x = ring[:, 0]
    y = ring[:, 1]
    r1 = np.concatenate((ring[1:], ring[:1]))  # both shifted columns at once
    x1 = r1[:, 0]
    y1 = r1[:, 1]
    cross = x * y1 - x1 * y
    # np.add.reduce is np.sum's own pairwise reduction, minus its wrapper
    return x, x1, y, y1, cross, float(np.add.reduce(cross))


def _centroid_from_cache(cache) -> tuple[float, float] | None:
    wsum = 0.0
    cx = 0.0
    cy = 0.0
    for i, (x, x1, y, y1, cross, a2) in enumerate(cache):
        if len(x) < 3 or a2 == 0.0:
            continue
        rx = float(np.add.reduce((x + x1) * cross)) / (3.0 * a2)
        ry = float(np.add.reduce((y + y1) * cross)) / (3.0 * a2)
        w = abs(a2) / 2.0
        if i > 0:
            w = -w  # holes subtract
        wsum += w
        cx += rx * w
        cy += ry * w
    if wsum == 0.0:
        return None
    return cx / wsum, cy / wsum


class PackedPolygons(NamedTuple):
    """Polygons as flat arrays for the compiled scorer: polygon k owns rings
    ``poly_off[k]:poly_off[k+1]``, ring r owns the (x, y) rows
    ``ring_off[r]:ring_off[r+1]`` of ``xy``.  Plain numpy, so a stage that
    holds one pickles cheaply."""

    xy: np.ndarray  # (V, 2) float64, C-contiguous
    ring_off: np.ndarray  # (R+1,) int64
    poly_off: np.ndarray  # (P+1,) int64


def _pack(rings: list[np.ndarray], rings_per_poly: list[int]) -> PackedPolygons:
    ring_off = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rings], out=ring_off[1:])
    poly_off = np.zeros(len(rings_per_poly) + 1, dtype=np.int64)
    np.cumsum(rings_per_poly, out=poly_off[1:])
    xy = np.concatenate(rings) if rings else np.empty((0, 2))
    return PackedPolygons(np.ascontiguousarray(xy, dtype=np.float64), ring_off, poly_off)


def pack_polygons(polys: list[list[np.ndarray]]) -> PackedPolygons:
    """Pack polygons (lists of (n, 2) rings, closed or open) for
    ``signed_distance``."""
    rings = [np.asarray(r, dtype=np.float64).reshape(-1, 2) for p in polys for r in p]
    return _pack(rings, [len(p) for p in polys])


def signed_distance(
    px: np.ndarray, py: np.ndarray, poly_of_point: np.ndarray, packed: PackedPolygons
) -> np.ndarray:
    """Signed distance of K points, each to its own polygon's outline
    (``signed_distance``, lib.rs:163-233): positive inside by the even-odd
    rule, holes included.  Rings of fewer than 2 vertices have no edges."""
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    poly = np.ascontiguousarray(poly_of_point, dtype=np.int64)
    npoly = len(packed.poly_off) - 1
    if (packed.xy.dtype != np.float64 or packed.xy.shape[1:] != (2,)
            or not packed.xy.flags.c_contiguous
            or packed.ring_off[-1] != len(packed.xy)
            or packed.poly_off[-1] != len(packed.ring_off) - 1):
        raise ValueError("packed polygons are inconsistent; build them with pack_polygons")
    if not len(px) == len(py) == len(poly):
        raise ValueError("px, py and poly_of_point differ in length")
    if len(poly) and (poly.min() < 0 or poly.max() >= npoly):
        raise IndexError(f"poly_of_point outside [0, {npoly})")
    out = np.empty(len(px))
    rc = _lib.pl_signed_distance(
        npoly, _buf("double[]", packed.xy),
        _buf("int64_t[]", packed.ring_off), _buf("int64_t[]", packed.poly_off),
        len(px), _buf("double[]", px), _buf("double[]", py),
        _buf("int64_t[]", poly), _buf("double[]", out),
    )
    if rc:
        raise MemoryError("pl_signed_distance: out of memory")
    return out


def polylabel_batch(
    polys: list[list[np.ndarray]], tolerances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Label a batch of polygons.  Returns (x, y, dist, area, err) arrays.

    ``polys[i]`` is a list of (n, 2) float64 rings (ring 0 = exterior); rings
    may be closed (first == last) or open.  Results are identical to running
    the reference algorithm polygon-by-polygon: numpy screens and seeds each
    row, then one compiled call searches every live polygon."""
    P = len(polys)
    out_x = np.full(P, np.nan)
    out_y = np.full(P, np.nan)
    out_d = np.full(P, np.nan)
    out_a = np.full(P, np.nan)
    out_e: list[str] = [ERR_OK] * P

    # phase 1: normalize rings; pack every surviving ring once so the
    # per-poly isfinite / bbox screens become a handful of reduceat calls
    # and the compiled search reads the same arrays.  These are comparison
    # reductions — any evaluation order is bit-identical.
    norm_all: list[list[np.ndarray] | None] = []
    flat_rings: list[np.ndarray] = []
    rings_per_poly: list[int] = []
    for rings in polys:
        rs = [normalize_ring(np.asarray(r, dtype=np.float64).reshape(-1, 2)) for r in rings]
        rs = [r for r in rs if len(r) > 0]
        if not rs:
            norm_all.append(None)
            continue
        norm_all.append(rs)
        flat_rings.extend(rs)
        rings_per_poly.append(len(rs))
    if not flat_rings:
        out_e = [ERR_EMPTY] * P
        return out_x, out_y, out_d, out_a, out_e
    packed = _pack(flat_rings, rings_per_poly)
    flat = packed.xy
    starts = packed.ring_off[packed.poly_off[:-1]]
    fin = np.isfinite(flat)
    poly_finite = np.bitwise_and.reduceat(fin[:, 0] & fin[:, 1], starts)
    minx_a = np.minimum.reduceat(flat[:, 0], starts)
    maxx_a = np.maximum.reduceat(flat[:, 0], starts)
    miny_a = np.minimum.reduceat(flat[:, 1], starts)
    maxy_a = np.maximum.reduceat(flat[:, 1], starts)

    # phase 2: per-row guards and seed parameters for the compiled search
    which: list[int] = []  # packed polygon index of each searched row
    rows: list[int] = []  # its batch row
    par: list[tuple] = []
    k = -1  # index into the surviving-poly arrays above
    for i in range(P):
        rs = norm_all[i]
        if rs is None:
            out_e[i] = ERR_EMPTY
            continue
        k += 1
        if not poly_finite[k]:
            out_e[i] = ERR_NONFINITE
            continue
        ring_cache = [_ring_terms(r) for r in rs]
        # identical to polygon_signed_area: python-sequential sum of the
        # per-ring np.sum(cross) values, halved once
        area = sum(c[5] for c in ring_cache) / 2.0
        out_a[i] = area
        if area == 0.0:
            out_x[i] = 0.0
            out_y[i] = 0.0
            out_d[i] = 0.0
            continue
        # bounding box over ALL rings (geo bounding_rect covers interiors too)
        minx = float(minx_a[k])
        maxx = float(maxx_a[k])
        miny = float(miny_a[k])
        maxy = float(maxy_a[k])
        w = maxx - minx
        hgt = maxy - miny
        cell_size = min(w, hgt)
        if cell_size == 0.0:
            out_x[i] = minx
            out_y[i] = miny
            out_d[i] = 0.0
            continue

        # seed guesses: area-weighted centroid and bbox centre
        cen = _centroid_from_cache(ring_cache)
        bbc = ((minx + maxx) / 2.0, (miny + maxy) / 2.0)
        if cen is None:
            cen = bbc  # degenerate centroid: fall back to bbox centre guess
        # ratio can overflow float64 to inf for denormal-width slivers
        # (e.g. w ~ 1e-308): guard in FLOAT space before any ceil, otherwise
        # math.ceil(inf) raises OverflowError and kills the task
        rx = w / cell_size
        ry = hgt / cell_size
        if (
            not (math.isfinite(rx) and math.isfinite(ry))
            or math.ceil(rx) * math.ceil(ry) > MAX_SEED_CELLS
        ):
            # no grid: the row still carries the better guess (a usable, if
            # coarse, label) plus the error
            nx = ny = 0
            out_e[i] = ERR_SEED_OVERFLOW
        else:
            nx = math.ceil(rx)
            ny = math.ceil(ry)
        which.append(k)
        rows.append(i)
        par.append((float(tolerances[i]), cen[0], cen[1], bbc[0], bbc[1],
                    minx, miny, cell_size, nx, ny))

    if which:
        n = len(which)
        which_a = np.asarray(which, dtype=np.int64)
        par_a = np.asarray(par, dtype=np.float64)
        res = np.empty((n, 4))
        rc = _lib.pl_label(
            n, _buf("int64_t[]", which_a), _buf("double[]", flat),
            _buf("int64_t[]", packed.ring_off), _buf("int64_t[]", packed.poly_off),
            _buf("double[]", par_a), MAX_POPS, _buf("double[]", res),
        )
        if rc:
            raise MemoryError("pl_label: out of memory")
        rows_a = np.asarray(rows, dtype=np.int64)
        out_x[rows_a] = res[:, 0]
        out_y[rows_a] = res[:, 1]
        out_d[rows_a] = res[:, 2]
        for j in np.flatnonzero(res[:, 3]):
            out_e[rows[j]] = ERR_MAXITER
    return out_x, out_y, out_d, out_a, out_e


def polylabel_one(
    rings: list[np.ndarray], tolerance: float
) -> tuple[float, float, float, float, str]:
    """Label a single polygon; returns (x, y, distance, area, err).

    Same code path as ``polylabel_batch`` with batch size 1 — used by tests
    and as the trusted scalar oracle (FIXTURES.md §5)."""
    x, y, d, a, e = polylabel_batch([rings], np.array([tolerance]))
    return float(x[0]), float(y[0]), float(d[0]), float(a[0]), e[0]
