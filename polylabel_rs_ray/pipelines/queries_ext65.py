"""Round-3 extension operators, batch 65: polygon clipping and hexagonal
spatial binning.

``clip_stats`` — Sutherland–Hodgman clip of every dyadic fixture
polygon against its own central-half bbox (``[w/4, 3w/4] x [h/4,
3h/4]`` of the bbox-normalized exterior — translation-covariant, so
the clipped area/vertex-count are per-fixture constants).  The oracle
constants come from an INDEPENDENT sequential scalar clipper twin
(the diameter_stats/convexity discipline); the engine stage is the
vectorized half-plane pipeline.  Both set the clamped coordinate to
the bound EXACTLY and compute the free coordinate as
``p + t * (q - p)`` with ``t = (bound - p)/(q - p)`` — identical IEEE
op order, so areas compare bit-for-bit.

``hex_bins`` — pointy-top axial hexagonal binning (the H3/hexbin
analogue) of the dyadic label points: fractional axial coordinates
``q = (sqrt(3)/3 * x - 1/3 * y)/S``, ``r = (2/3 * y)/S``, cube
rounding with ``floor(v + 0.5)`` (NOT banker's rounding — DuckDB ROUND
is half-away, numpy half-even; floor(+0.5) is the one portable form),
counts per hex cell.  Every float op is mirrored verbatim in the SQL
oracle, cube-round CASE included.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

HEX_SIZE = 16.0


# --------------------------------------------------------------------------
# clip_stats
# --------------------------------------------------------------------------


def _clip_halfplane(poly: np.ndarray, axis: int, bound: float,
                    keep_low: bool) -> np.ndarray:
    """One Sutherland–Hodgman stage, vectorized: keep points with
    coord <= bound (keep_low) or >= bound.  poly is (n, 2), open ring."""
    if len(poly) == 0:
        return poly
    p = poly
    q = np.roll(poly, -1, axis=0)
    pin = (p[:, axis] <= bound) if keep_low else (p[:, axis] >= bound)
    qin = (q[:, axis] <= bound) if keep_low else (q[:, axis] >= bound)
    cross = pin != qin
    t = np.zeros(len(p))
    denom = q[:, axis] - p[:, axis]
    m = cross & (denom != 0.0)
    t[m] = (bound - p[m, axis]) / denom[m]
    ix = p[:, 0] + t * (q[:, 0] - p[:, 0])
    iy = p[:, 1] + t * (q[:, 1] - p[:, 1])
    inter = np.stack([ix, iy], axis=1)
    inter[:, axis] = bound  # clamp exactly — no fp residue on the cut edge
    out = []
    for i in range(len(p)):
        if qin[i]:
            if not pin[i]:
                out.append(inter[i])
            out.append(q[i])
        elif pin[i]:
            out.append(inter[i])
    return np.array(out, dtype=np.float64) if out else np.empty((0, 2))


def _clip_central_bbox(ext: np.ndarray) -> np.ndarray:
    """Clip a bbox-normalized exterior ring to its central-half bbox."""
    w = float(ext[:, 0].max())
    h = float(ext[:, 1].max())
    xlo, xhi = w * 0.25, w * 0.75
    ylo, yhi = h * 0.25, h * 0.75
    poly = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    poly = _clip_halfplane(poly, 0, xlo, keep_low=False)
    poly = _clip_halfplane(poly, 0, xhi, keep_low=True)
    poly = _clip_halfplane(poly, 1, ylo, keep_low=False)
    poly = _clip_halfplane(poly, 1, yhi, keep_low=True)
    return poly


def _shoelace_abs(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    s = 0.0
    for v in x * y1 - x1 * y:  # sequential fold: twin-identical order
        s += float(v)
    return abs(s) / 2.0


def q_clip_stats(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        area = np.empty(len(polys), dtype=np.float64)
        nv = np.empty(len(polys), dtype=np.int64)
        for i, rings in enumerate(polys):
            clipped = _clip_central_bbox(_norm_exterior(rings))
            area[i] = _shoelace_abs(clipped)
            nv[i] = len(clipped)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "clip_area": pa.array(area, type=pa.float64()),
            "clip_vertices": pa.array(nv, type=pa.int64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_clip_stats(ext) -> tuple[float, int]:
    """Oracle twin: sequential scalar Sutherland–Hodgman + shoelace,
    sharing no code with the engine stage above."""
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    w = max(p[0] for p in pts)
    h = max(p[1] for p in pts)
    stages = [(0, w * 0.25, False), (0, w * 0.75, True),
              (1, h * 0.25, False), (1, h * 0.75, True)]
    for axis, bound, keep_low in stages:
        if not pts:
            break
        out = []
        n = len(pts)
        for i in range(n):
            px, py = pts[i]
            qx, qy = pts[(i + 1) % n]
            pc_ = (px, py)[axis]
            qc = (qx, qy)[axis]
            pin = pc_ <= bound if keep_low else pc_ >= bound
            qin = qc <= bound if keep_low else qc >= bound
            if pin != qin and qc != pc_:
                t = (bound - pc_) / (qc - pc_)
                ix = px + t * (qx - px)
                iy = py + t * (qy - py)
            else:
                ix, iy = 0.0, 0.0
            if axis == 0:
                ix = bound
            else:
                iy = bound
            if qin:
                if not pin:
                    out.append((ix, iy))
                out.append((qx, qy))
            elif pin:
                out.append((ix, iy))
        pts = out
    if len(pts) < 3:
        return 0.0, len(pts)
    s = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0, len(pts)


def _sql_clip_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cases_a, cases_v = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        a, v = _twin_clip_stats(ext)
        cases_a.append(f"WHEN {f} THEN {a!r}")
        cases_v.append(f"WHEN {f} THEN {v}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cases_a)} END AS clip_area,
               CAST(CASE doc_id % {n} {' '.join(cases_v)} END AS BIGINT)
                 AS clip_vertices
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# hex_bins
# --------------------------------------------------------------------------


def _hex_axial(x: np.ndarray, y: np.ndarray):
    """Fractional axial coords + cube rounding, vectorized.  Every op here
    is mirrored verbatim in _sql_hex_bins — change both or neither."""
    c1 = np.sqrt(3.0) / 3.0
    qf = (c1 * x - (1.0 / 3.0) * y) / HEX_SIZE
    rf = ((2.0 / 3.0) * y) / HEX_SIZE
    yf = -qf - rf
    rq = np.floor(qf + 0.5)
    ry = np.floor(yf + 0.5)
    rr = np.floor(rf + 0.5)
    dq = np.abs(rq - qf)
    dy = np.abs(ry - yf)
    dr = np.abs(rr - rf)
    fix_q = (dq > dy) & (dq > dr)
    fix_r = ~fix_q & ~(dy > dr)
    q_out = np.where(fix_q, -ry - rr, rq)
    r_out = np.where(fix_r, -rq - ry, rr)
    return q_out.astype(np.int64), r_out.astype(np.int64)


def q_hex_bins(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled

    def bin_stage(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        q, r = _hex_axial(x, y)
        return pa.table({
            "hex_q": pa.array(q, type=pa.int64()),
            "hex_r": pa.array(r, type=pa.int64()),
        })

    return grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(bin_stage, batch_format="pyarrow",
                                            zero_copy_batch=True),
        ["hex_q", "hex_r"],
        [("count", None, "n_points")],
    )


def _sql_hex_bins() -> str:
    from .queries import _sql_dyadic_labels_cte

    s = f"{HEX_SIZE!r}"
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        frac AS (
          SELECT (sqrt(3.0)/3.0 * label_x - 1.0/3.0 * label_y) / {s} AS qf,
                 (2.0/3.0 * label_y) / {s} AS rf
          FROM labels
        ),
        cube AS (
          SELECT qf, rf, -qf - rf AS yf,
                 FLOOR(qf + 0.5) AS rq,
                 FLOOR(-qf - rf + 0.5) AS ry,
                 FLOOR(rf + 0.5) AS rr
          FROM frac
        ),
        fixed AS (
          SELECT CASE WHEN ABS(rq - qf) > ABS(ry - yf)
                       AND ABS(rq - qf) > ABS(rr - rf)
                      THEN -ry - rr ELSE rq END AS hq,
                 CASE WHEN NOT (ABS(rq - qf) > ABS(ry - yf)
                                AND ABS(rq - qf) > ABS(rr - rf))
                       AND NOT (ABS(ry - yf) > ABS(rr - rf))
                      THEN -rq - ry ELSE rr END AS hr
          FROM cube
        )
        SELECT CAST(hq AS BIGINT) AS hex_q, CAST(hr AS BIGINT) AS hex_r,
               CAST(COUNT(*) AS BIGINT) AS n_points
        FROM fixed GROUP BY hq, hr
    """


def build_queries_ext65() -> dict:
    return {
        "clip_stats": q_clip_stats,
        "hex_bins": q_hex_bins,
    }


def build_oracles_ext65() -> dict:
    return {
        "clip_stats": _sql_clip_stats(),
        "hex_bins": _sql_hex_bins(),
    }
