"""Round-3 extension operators, batch 29: exact rectangle-union area
(Klee's measure problem in 2-D) over the document bounding boxes.

``bbox_union_area`` — the total area covered by the union of all dyadic
document bboxes, per x-slab: the classic sweep-line/slab decomposition
(Bentley 1977) made distributed.  Every rect edge x-coordinate becomes a
slab boundary; a rect overlapping a slab spans it fully, so per slab the
covered y-length is a 1-D interval union (sort by start, running max of
ends, sum the uncovered gaps) and slab area = width x y-length.

Exactness: all coordinates are dyadic rationals (the dyadic fixture set
translated by integer offsets), so every max / subtract / sum below is
REPRESENTABLE — no rounding anywhere — and numpy and DuckDB agree
bit-for-bit regardless of accumulation order (same argument as the label
oracles).

Scale shape: the slab-boundary index is the sorted distinct edge xs —
bounded by fixture geometry x offset modulus (~8k values), ``ray.put``
once.  Rect -> slab incidence expansion is a stateless map (searchsorted
per batch); the per-slab interval unions run behind ONE hash exchange on
slab id, each slab entirely within one partition.  Output is one row per
covered slab (x0, x1, y_len, area) — a driver never holds the rects.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.util import group_map
from .agg import hash_part, n_partitions


def q_bbox_union_area(sf_dir: str, n_parts: int | None = None):
    from .queries_ext import _bbox_stage, _dyadic_rings_ds

    import ray
    P = n_partitions(n_parts)

    boxes = _dyadic_rings_ds(sf_dir).map_batches(
        _bbox_stage, batch_format="pyarrow", zero_copy_batch=True
    )

    # slab boundaries: sorted distinct edge xs (bounded by geometry x
    # offset modulus — the broadcast-small-side of this sweep).  The
    # distinct runs DISTRIBUTED (per-block unique + one small exchange) so
    # the driver only ever holds the ~8k boundary values, never a per-doc
    # column.
    from .agg import grouped_aggregate

    def edge_xs(batch: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            batch.column("bx0").to_numpy(), batch.column("bx1").to_numpy()
        ]))
        return pa.table({"x": pa.array(u, type=pa.float64())})

    xs_tbl = grouped_aggregate(
        boxes.map_batches(edge_xs, batch_format="pyarrow", zero_copy_batch=True),
        ["x"],
        [("count", None, "n")],
    ).to_pandas()
    xs = np.sort(xs_tbl["x"].to_numpy())
    xs_ref = ray.put(xs)

    def incidences(batch: pa.Table) -> pa.Table:
        x_bounds = ray.get(xs_ref)
        bx0 = batch.column("bx0").to_numpy()
        bx1 = batch.column("bx1").to_numpy()
        by0 = batch.column("by0").to_numpy()
        by1 = batch.column("by1").to_numpy()
        # bx0/bx1 are themselves slab boundaries: rect covers slabs
        # [idx(bx0), idx(bx1)) fully
        i0 = np.searchsorted(x_bounds, bx0)
        i1 = np.searchsorted(x_bounds, bx1)
        cnt = (i1 - i0).astype(np.int64)
        total = int(cnt.sum())
        if total == 0:
            return pa.table({
                "__part": pa.array([], type=pa.int64()),
                "slab": pa.array([], type=pa.int64()),
                "by0": pa.array([], type=pa.float64()),
                "by1": pa.array([], type=pa.float64()),
            })
        csum = np.r_[0, np.cumsum(cnt)]
        slab = (np.arange(total) - np.repeat(csum[:-1], cnt)
                + np.repeat(i0, cnt))
        return pa.table({
            "__part": pa.array(hash_part(slab, P), type=pa.int64()),
            "slab": pa.array(slab, type=pa.int64()),
            "by0": pa.array(np.repeat(by0, cnt), type=pa.float64()),
            "by1": pa.array(np.repeat(by1, cnt), type=pa.float64()),
        })

    def union_per_slab(group: pa.Table) -> pa.Table:
        x_bounds = ray.get(xs_ref)
        slab = group.column("slab").to_numpy().astype(np.int64)
        y0 = group.column("by0").to_numpy()
        y1 = group.column("by1").to_numpy()
        empty = pa.table({
            "x0": pa.array([], type=pa.float64()),
            "x1": pa.array([], type=pa.float64()),
            "y_len": pa.array([], type=pa.float64()),
            "area": pa.array([], type=pa.float64()),
        })
        if len(slab) == 0:
            return empty
        order = np.lexsort((y1, y0, slab))
        slab, y0, y1 = slab[order], y0[order], y1[order]
        starts = np.flatnonzero(np.r_[True, slab[1:] != slab[:-1]])
        ends = np.append(starts[1:], len(slab))
        out_slab, out_len = [], []
        for a, b in zip(starts, ends):
            e = y1[a:b]
            cm = np.maximum.accumulate(e)
            prev = np.empty(b - a)
            prev[0] = -np.inf
            prev[1:] = cm[:-1]
            # identical GREATEST pair as the SQL oracle; dyadic-exact
            gaps = np.maximum(e, prev) - np.maximum(y0[a:b], prev)
            out_slab.append(slab[a])
            out_len.append(gaps.sum())
        out_slab = np.asarray(out_slab, dtype=np.int64)
        y_len = np.asarray(out_len)
        x0 = x_bounds[out_slab]
        x1 = x_bounds[out_slab + 1]
        return pa.table({
            "x0": pa.array(x0, type=pa.float64()),
            "x1": pa.array(x1, type=pa.float64()),
            "y_len": pa.array(y_len, type=pa.float64()),
            "area": pa.array((x1 - x0) * y_len, type=pa.float64()),
        })

    inc = boxes.map_batches(incidences, batch_format="pyarrow", zero_copy_batch=True)
    return group_map(inc, "__part", union_per_slab)


def _sql_bbox_union_area() -> str:
    from .queries_ext import _sql_dyadic_bbox_cte

    return f"""
        WITH boxes AS ({_sql_dyadic_bbox_cte()}),
        xs AS (
            SELECT DISTINCT x FROM (
                SELECT bx0 AS x FROM boxes
                UNION ALL SELECT bx1 FROM boxes
            )
        ),
        slabs AS (
            SELECT x AS x0, LEAD(x) OVER (ORDER BY x) AS x1 FROM xs
        ),
        live AS (
            SELECT s.x0, s.x1, b.by0, b.by1
            FROM slabs s JOIN boxes b ON b.bx0 <= s.x0 AND b.bx1 >= s.x1
            WHERE s.x1 IS NOT NULL
        ),
        o AS (
            SELECT x0, x1, by0, by1,
                   MAX(by1) OVER (PARTITION BY x0 ORDER BY by0, by1
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS prev
            FROM live
        ),
        agg AS (
            SELECT x0, x1,
                   SUM(GREATEST(by1, COALESCE(prev, by0))
                       - GREATEST(by0, COALESCE(prev, by0))) AS y_len
            FROM o GROUP BY x0, x1
        )
        SELECT x0, x1, y_len, (x1 - x0) * y_len AS area FROM agg
    """


def build_queries_ext29() -> dict:
    return {"bbox_union_area": q_bbox_union_area}


def build_oracles_ext29() -> dict:
    return {"bbox_union_area": _sql_bbox_union_area()}
