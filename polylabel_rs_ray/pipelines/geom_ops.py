"""Per-polygon geometry kernels beyond the label search: convex hull and
Douglas-Peucker simplification.

Like ``polylabel_batch`` (geom/kernel.py), these are per-row kernels applied
inside ``map_batches`` — the per-polygon loop mirrors the reference's
one-call-per-polygon shape (lib.rs:336), with the inner work vectorized
(sorted-array sweeps / whole-segment distance evaluations in numpy).

Determinism note (shared with the dyadic oracle queries): both kernels are
translation-equivariant in exact arithmetic, so callers that need
bit-reproducible outputs normalize the ring to its own bbox.min first —
for dyadic fixture rings translated by integer offsets, the subtraction is
fp-exact and the normalized geometry is bit-identical across documents.
"""

from __future__ import annotations

import numpy as np


def ring_area(pts: np.ndarray) -> float:
    """Shoelace signed area of an (n, 2) ring; the closing edge is implicit
    (geo closes implicitly — SURVEY §1.1)."""
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def convex_hull(pts: np.ndarray) -> np.ndarray:
    """Andrew monotone-chain convex hull of an (n, 2) point set.

    Returns hull vertices in counter-clockwise order, starting from the
    lexicographically smallest point; collinear points on hull edges are
    dropped (strict hull).  Degenerate inputs: <=2 distinct points (or all
    collinear) return the 2 extreme points (a segment) or fewer."""
    p = np.unique(pts, axis=0)  # lexicographic sort, dup removal
    n = len(p)
    if n <= 2:
        return p

    def _chain(points: np.ndarray) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for q in points:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0]) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(q)
        return out

    lower = _chain(p)
    upper = _chain(p[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return np.vstack([p[0], p[-1]])
    return np.asarray(hull)


def _seg_dists(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized distance from each row of ``pts`` to segment a-b."""
    ab = b - a
    ap = pts - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.hypot(ap[:, 0], ap[:, 1])
    t = np.clip((ap @ ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = pts - proj
    return np.hypot(d[:, 0], d[:, 1])


def douglas_peucker_mask(pts: np.ndarray, eps: float) -> np.ndarray:
    """Douglas-Peucker keep-mask for an open polyline (n, 2).

    Guarantees every dropped point lies within ``eps`` of the segment
    between its two nearest kept anchors.  First and last points are always
    kept.  Deterministic: the farthest point wins ties by lowest index
    (np.argmax first-max rule)."""
    n = len(pts)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    keep[0] = keep[n - 1] = True
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        d = _seg_dists(pts[i + 1 : j], pts[i], pts[j])
        k = int(np.argmax(d))
        if d[k] > eps:
            k += i + 1
            keep[k] = True
            stack.append((i, k))
            stack.append((k, j))
    return keep


def simplify_ring(ring: np.ndarray, eps: float) -> np.ndarray:
    """Simplify a ring (closed — trailing duplicate of the first point — or
    implicitly closed) with Douglas-Peucker at tolerance ``eps``.

    The anchor pair is (first vertex, last distinct vertex); an explicit
    closing duplicate is stripped before and NOT re-appended (output follows
    the implicit-closure convention)."""
    pts = np.asarray(ring, dtype=np.float64)
    if len(pts) >= 2 and bool(np.all(pts[0] == pts[-1])):
        pts = pts[:-1]
    if len(pts) <= 2:
        return pts
    return pts[douglas_peucker_mask(pts, eps)]


def ring_perimeter(pts: np.ndarray) -> float:
    """Perimeter of an (n, 2) ring (closing edge implicit): sequential sum
    of per-edge Euclidean lengths.  On bbox-normalized dyadic rings every
    coordinate difference is fp-exact, so the value is bit-reproducible
    across translated copies."""
    if len(pts) < 2:
        return 0.0
    d = np.roll(pts, -1, axis=0) - pts
    seg = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    return float(np.sum(seg))


def ring_diameter_sq(pts: np.ndarray) -> float:
    """Squared diameter (max pairwise squared distance) of an (n, 2) ring.

    The diameter endpoints lie on the convex hull, so the all-pairs max is
    taken over hull vertices only (h^2 work on a tiny h) — the exact
    rotating-calipers answer without the sweep's edge cases.  Squared
    distances of bbox-normalized dyadic coords are exact integers-in-float,
    so the max is deterministic."""
    h = convex_hull(pts)
    if len(h) < 2:
        return 0.0
    dx = h[:, 0][:, None] - h[:, 0][None, :]
    dy = h[:, 1][:, None] - h[:, 1][None, :]
    return float((dx * dx + dy * dy).max())
