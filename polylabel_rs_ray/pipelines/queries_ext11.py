"""Round-2 extension operators, batch 12: shape metrology.

``diameter_stats`` — per-polygon diameter^2 (max pairwise squared
distance, computed over the convex hull — the rotating-calipers answer)
and perimeter of the bbox-normalized exterior ring.  Same execution
shape as the label kernel (per-row geometry kernel in map_batches) and
the same dyadic-constant oracle discipline as ``hull_stats``: both
metrics are translation-invariant bit-for-bit on the dyadic fixtures,
so the SQL replays engine-derived per-fixture constants."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources import docs as docs_mod
from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES
from .geom_ops import ring_diameter_sq, ring_perimeter
from .queries_ext import DYADIC_IDX, _dyadic_rings_ds, _norm_exterior


def _shape_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    dsq = np.empty(len(polys), dtype=np.float64)
    per = np.empty(len(polys), dtype=np.float64)
    for i, rings in enumerate(polys):
        ext = _norm_exterior(rings)
        dsq[i] = ring_diameter_sq(ext)
        per[i] = ring_perimeter(ext)
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "diam_sq": pa.array(dsq, type=pa.float64()),
        "perimeter": pa.array(per, type=pa.float64()),
    })


def q_diameter_stats(sf_dir: str):
    return _dyadic_rings_ds(sf_dir).map_batches(
        _shape_stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _independent_metrology(raw_ext) -> tuple[float, float]:
    """Oracle-side twin computed WITHOUT any engine code: pure-Python bbox
    normalization (min subtraction, fp-exact on the dyadic fixtures),
    all-pairs diameter over ALL ring vertices (no convex hull), and a
    sequential math.sqrt perimeter loop.  Independent code path, same IEEE
    doubles — on the dyadic fixtures both agree bit-for-bit with the
    kernels (the all-pairs max is over exact integer-in-float squares; the
    perimeter edges are few enough that numpy's pairwise sum degenerates
    to the sequential order).  Keeps the SQL constants from sharing ANY
    code with ``_norm_exterior``/``ring_diameter_sq``/``ring_perimeter``
    under test."""
    import math

    raw = [(float(x), float(y)) for x, y in raw_ext]
    mnx = min(x for x, _ in raw)
    mny = min(y for _, y in raw)
    pts = [(x - mnx, y - mny) for x, y in raw]
    d2 = 0.0
    for i, (xi, yi) in enumerate(pts):
        for xj, yj in pts[i + 1:]:
            dx, dy = xi - xj, yi - yj
            v = dx * dx + dy * dy
            if v > d2:
                d2 = v
    per = 0.0
    n = len(pts)
    if n >= 2:
        for i, (x0, y0) in enumerate(pts):
            x1, y1 = pts[(i + 1) % n]
            per += math.sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0))
    return d2, per


def _sql_diameter_stats() -> str:
    cases_d, cases_p = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        # raw exterior ring straight from the fixture — normalization
        # happens inside the independent pure-Python twin
        d2, per = _independent_metrology(FIXTURES[name].rings[0])
        cases_d.append(f"WHEN {f} THEN {d2!r}")
        cases_p.append(f"WHEN {f} THEN {per!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cases_d)} END AS diam_sq,
               CASE doc_id % {n} {' '.join(cases_p)} END AS perimeter
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext11() -> dict:
    return {"diameter_stats": q_diameter_stats}


def build_oracles_ext11() -> dict:
    return {"diameter_stats": _sql_diameter_stats()}
