"""Round-3 extension operators, batch 100: space-filling-curve locality
and polygon extent.

``curve_locality_compare`` — WHY the engine offers Hilbert clustering
next to z-order, measured: over the occupied 16x16 label cells, the
total Manhattan distance between CONSECUTIVE cells in each curve
order (z-order bit interleave vs order-4 Hilbert).  Lower total step
means better locality for range scans.  Both curve indices are
engine kernels already oracle-pinned elsewhere (zorder/hilbert_cells);
here their ORDERINGS are compared on equal footing — exact integers,
the SQL oracle replays both orderings with window LAG.

``extent_stats`` — the extent (rectangularity) shape metric: polygon
area over bbox area as an exact dyadic rational pair — 1.0 for
axis-aligned rectangles, small for slivers.  Per-fixture constants
from an independent twin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

GRID_N = 16
CELL = 8.0


def _interleave16(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def q_curve_locality_compare(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled
    from .queries_ext79 import hilbert_xy2d

    # occupied cells (bounded 16x16 grid histogram)
    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        return pa.table({
            "cx": pa.array((np.floor(x / CELL).astype(np.int64)) % GRID_N,
                           type=pa.int64()),
            "cy": pa.array((np.floor(y / CELL).astype(np.int64)) % GRID_N,
                           type=pa.int64()),
        })

    hist = grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(cells, batch_format="pyarrow",
                                            zero_copy_batch=True),
        ["cx", "cy"], [("count", None, "n")],
    ).to_pandas()

    cx = hist["cx"].to_numpy().astype(np.int64)
    cy = hist["cy"].to_numpy().astype(np.int64)
    z = (_interleave16(cx) | (_interleave16(cy) << np.uint64(1))).astype(
        np.int64)
    h = hilbert_xy2d(cx, cy, n=GRID_N)

    import pandas as pd

    rows = []
    for name, key in (("zorder", z), ("hilbert", h)):
        order = np.argsort(key)
        dx = np.abs(np.diff(cx[order]))
        dy = np.abs(np.diff(cy[order]))
        rows.append({
            "curve": name,
            "n_cells": len(cx),
            "total_manhattan_step": int((dx + dy).sum()),
        })
    out = pd.DataFrame(rows).sort_values("curve").reset_index(drop=True)
    out["n_cells"] = out["n_cells"].astype("int64")
    out["total_manhattan_step"] = \
        out["total_manhattan_step"].astype("int64")
    return out


def _sql_curve_locality_compare() -> str:
    from .queries import _sql_dyadic_labels_cte

    # 16-bit interleave, unrolled shifts (values < 16 so 8/4/2/1 suffice)
    def spread(col: str) -> str:
        e = col
        e = f"(({e}) | (({e}) << 8)) & 16711935"
        e = f"(({e}) | (({e}) << 4)) & 252645135"
        e = f"(({e}) | (({e}) << 2)) & 858993459"
        e = f"(({e}) | (({e}) << 1)) & 1431655765"
        return e

    # order-4 Hilbert: reuse the ext65-style unrolled stages from ext79
    stages = []
    prev = "c0"
    for i, s in enumerate((8, 4, 2, 1)):
        cur = f"c{i + 1}"
        stages.append(f"""
        {cur} AS (
          SELECT cx, cy,
                 d + {s * s} * (xor(3 * (CASE WHEN (x & {s}) > 0
                                             THEN 1 ELSE 0 END),
                                    (CASE WHEN (y & {s}) > 0
                                          THEN 1 ELSE 0 END))) AS d,
                 CASE WHEN (y & {s}) = 0 THEN
                   CASE WHEN (x & {s}) > 0 THEN {s} - 1 - y ELSE y END
                 ELSE x END AS x,
                 CASE WHEN (y & {s}) = 0 THEN
                   CASE WHEN (x & {s}) > 0 THEN {s} - 1 - x ELSE x END
                 ELSE y END AS y
          FROM {prev}
        )""")
        prev = cur
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        cells AS (
          SELECT DISTINCT
                 CAST(FLOOR(label_x / {CELL!r}) AS BIGINT) % {GRID_N} AS cx,
                 CAST(FLOOR(label_y / {CELL!r}) AS BIGINT) % {GRID_N} AS cy
          FROM labels
        ),
        keys AS (
          SELECT cx, cy,
                 ({spread('cx')}) | (({spread('cy')}) << 1) AS zkey
          FROM cells
        ),
        c0 AS (SELECT cx, cy, CAST(0 AS BIGINT) AS d,
                      cx AS x, cy AS y FROM cells),{','.join(stages)}
        ,
        zsteps AS (
          SELECT ABS(cx - LAG(cx) OVER (ORDER BY zkey))
                 + ABS(cy - LAG(cy) OVER (ORDER BY zkey)) AS st
          FROM keys
        ),
        hsteps AS (
          SELECT ABS(cx - LAG(cx) OVER (ORDER BY d))
                 + ABS(cy - LAG(cy) OVER (ORDER BY d)) AS st
          FROM {prev}
        )
        SELECT 'hilbert' AS curve,
               CAST((SELECT COUNT(*) FROM cells) AS BIGINT) AS n_cells,
               CAST((SELECT COALESCE(SUM(st), 0) FROM hsteps) AS BIGINT)
                 AS total_manhattan_step
        UNION ALL
        SELECT 'zorder',
               CAST((SELECT COUNT(*) FROM cells) AS BIGINT),
               CAST((SELECT COALESCE(SUM(st), 0) FROM zsteps) AS BIGINT)
    """


# --------------------------------------------------------------------------
# extent_stats
# --------------------------------------------------------------------------


def _extent(ext: np.ndarray) -> tuple[float, float]:
    """(area, bbox_area) of the normalized exterior — both dyadic exact."""
    pts = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    x, y = pts[:, 0], pts[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    s = 0.0
    for v in x * y1 - x1 * y:  # sequential fold — twin-identical
        s += float(v)
    area = abs(s) / 2.0
    return area, float(x.max()) * float(y.max())


def q_extent_stats(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        a = np.empty(len(polys), dtype=np.float64)
        b = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            a[i], b[i] = _extent(_norm_exterior(rings))
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "area": pa.array(a, type=pa.float64()),
            "bbox_area": pa.array(b, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_extent(ext) -> tuple[float, float]:
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    s = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    w = max(p[0] for p in pts)
    h = max(p[1] for p in pts)
    return abs(s) / 2.0, w * h


def _sql_extent_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    ca, cb = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        a, b = _twin_extent(ext)
        ca.append(f"WHEN {f} THEN {a!r}")
        cb.append(f"WHEN {f} THEN {b!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(ca)} END AS area,
               CASE doc_id % {n} {' '.join(cb)} END AS bbox_area
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext100() -> dict:
    return {
        "curve_locality_compare": q_curve_locality_compare,
        "extent_stats": q_extent_stats,
    }


def build_oracles_ext100() -> dict:
    return {
        "curve_locality_compare": _sql_curve_locality_compare(),
        "extent_stats": _sql_extent_stats(),
    }
