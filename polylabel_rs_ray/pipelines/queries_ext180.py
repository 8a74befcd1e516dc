"""Round-3 extension operators, batch 180: rectangle-union area sweep +
component region-adjacency distances.

``rect_union_area`` — the measure-of-union problem (the classic
sweep-line exercise) over the l_shape fixture's translated bounding
boxes: every l_shape document contributes the integer rectangle
[dx, dx+4] × [dy, dy+4] (dx = 37·doc mod 1000, dy = 73·doc mod 1000
— the generator's offset lattice, replayed in SQL), the DISTINCT
rectangle set is bounded by the offset cycle (≤ 1000), and the union
area is exact int64.  Engine: distributed distinct-offset reduce,
then a coordinate-compressed x-sweep with per-slab y-interval
merging on the bounded set.  Oracle: breakpoint slabs × active
rectangles with the gaps-and-islands y-merge in SQL windows —
sweep-free.  Emits (n_rects, area_union, area_sum) — the overlap
deficit area_sum − area_union is the planted signal.

``region_adjacency_graph`` — the RAG over the res-7 connected
components (ext165): for every unordered component pair, the MINIMUM
Chebyshev distance between their cells — the spatial-proximity
structure of the label-cluster archipelago (which islands are one
bridge apart).  Engine: the component labels come from the ext165
pipeline (distributed tile shuffle + bounded lattice labeling); the
pairwise minima fold over the bounded cell lists.  Oracle: the full
ext165 recursive-closure component SQL nested as a CTE, then a
cell-pair join with MIN(GREATEST(|Δx|, |Δy|)) per pair.

Reference anchors: computational-geometry + raster-topology families
(SURVEY.md §2.3/§2.4); siblings: bbox_union_area (the disjoint-case
cousin), offset_generator_audit (generator-replay oracles),
tile_components (the component machinery, reused verbatim).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

RECT_FIXTURE_IDX = 0  # l_shape in FIXTURE_CYCLE
RECT_W = 4            # l_shape bbox is [0,4]^2


# --------------------------------------------------------------------------
# rect_union_area
# --------------------------------------------------------------------------


def q_rect_union_area(sf_dir: str):
    from ..sources import docs as docs_mod
    from .agg import grouped_aggregate

    import ray
    NF = docs_mod.N_FIXTURES

    def offsets(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        d = d[d % NF == RECT_FIXTURE_IDX]
        return pa.table({
            "dx": pa.array((d * docs_mod.OFF_X_MULT) % docs_mod.OFF_MOD,
                           type=pa.int64()),
            "dy": pa.array((d * docs_mod.OFF_Y_MULT) % docs_mod.OFF_MOD,
                           type=pa.int64()),
        })

    rects = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
            offsets, batch_format="pyarrow", zero_copy_batch=True),
        ["dx", "dy"], [("count", None, "cnt")],
    ).to_pandas()  # bounded: the offset cycle
    x0 = rects["dx"].to_numpy().astype(np.int64)
    y0 = rects["dy"].to_numpy().astype(np.int64)
    x1, y1 = x0 + RECT_W, y0 + RECT_W
    n = len(x0)
    xs = np.unique(np.concatenate([x0, x1]))
    area = 0
    for lo, hi in zip(xs[:-1], xs[1:]):  # bounded sweep
        act = (x0 <= lo) & (x1 >= hi)
        if not act.any():
            continue
        ys = np.stack([y0[act], y1[act]], axis=1)
        ys = ys[np.argsort(ys[:, 0], kind="stable")]
        covered = 0
        cur_lo, cur_hi = int(ys[0, 0]), int(ys[0, 1])
        for a, b in ys[1:]:
            if a > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = int(a), int(b)
            else:
                cur_hi = max(cur_hi, int(b))
        covered += cur_hi - cur_lo
        area += int(hi - lo) * covered
    return ray.data.from_arrow(pa.table({
        "n_rects": pa.array([n], type=pa.int64()),
        "area_union": pa.array([area], type=pa.int64()),
        "area_sum": pa.array([n * RECT_W * RECT_W], type=pa.int64()),
    }))


def _sql_rect_union_area() -> str:
    from ..sources import docs as docs_mod

    NF = docs_mod.N_FIXTURES
    return f"""
WITH rects AS MATERIALIZED (
  SELECT DISTINCT (doc_id * {docs_mod.OFF_X_MULT}) % {docs_mod.OFF_MOD}
           AS x0,
         (doc_id * {docs_mod.OFF_Y_MULT}) % {docs_mod.OFF_MOD} AS y0
  FROM documents WHERE doc_id % {NF} = {RECT_FIXTURE_IDX}
), xs AS MATERIALIZED (
  SELECT DISTINCT v FROM (
    SELECT x0 AS v FROM rects
    UNION ALL SELECT x0 + {RECT_W} FROM rects)
), slabs AS MATERIALIZED (
  SELECT v AS lo, LEAD(v) OVER (ORDER BY v) AS hi FROM xs
  QUALIFY hi IS NOT NULL
), act AS MATERIALIZED (
  SELECT s.lo, s.hi, r.y0, r.y0 + {RECT_W} AS y1
  FROM slabs s JOIN rects r
    ON r.x0 <= s.lo AND r.x0 + {RECT_W} >= s.hi
), isl AS (
  SELECT lo, hi, y0, y1,
         CASE WHEN y0 > COALESCE(MAX(y1) OVER (
                PARTITION BY lo ORDER BY y0, y1
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
              -1) THEN 1 ELSE 0 END AS brk
  FROM act
), grp AS (
  SELECT lo, hi, y0, y1,
         SUM(brk) OVER (PARTITION BY lo ORDER BY y0, y1
                        ROWS UNBOUNDED PRECEDING) AS gid
  FROM isl
), seg AS (
  SELECT lo, hi, gid, MAX(y1) - MIN(y0) AS cov
  FROM grp GROUP BY 1, 2, 3
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM rects) AS n_rects,
       CAST(COALESCE(SUM((hi - lo) * cov), 0) AS BIGINT) AS area_union,
       (SELECT CAST(COUNT(*) * {RECT_W * RECT_W} AS BIGINT) FROM rects)
         AS area_sum
FROM seg
"""


# --------------------------------------------------------------------------
# region_adjacency_graph
# --------------------------------------------------------------------------


def q_region_adjacency_graph(sf_dir: str):
    from .queries_ext165 import q_tile_components

    import ray
    comp = q_tile_components(sf_dir).to_pandas()  # bounded lattice cells
    by = {}
    for r in comp.itertuples():
        by.setdefault(int(r.comp_id), []).append((int(r.ix), int(r.iy)))
    ids = sorted(by)
    ca, cb, md = [], [], []
    for i in range(len(ids)):
        ax = np.array([p[0] for p in by[ids[i]]], dtype=np.int64)
        ay = np.array([p[1] for p in by[ids[i]]], dtype=np.int64)
        for j in range(i + 1, len(ids)):
            bx = np.array([p[0] for p in by[ids[j]]], dtype=np.int64)
            byy = np.array([p[1] for p in by[ids[j]]], dtype=np.int64)
            dist = np.maximum(
                np.abs(ax[:, None] - bx[None, :]),
                np.abs(ay[:, None] - byy[None, :]))
            ca.append(ids[i])
            cb.append(ids[j])
            md.append(int(dist.min()))
    return ray.data.from_arrow(pa.table({
        "comp_a": pa.array(ca, type=pa.int64()),
        "comp_b": pa.array(cb, type=pa.int64()),
        "min_cheb": pa.array(md, type=pa.int64()),
    }))


def _sql_region_adjacency_graph() -> str:
    from .queries_ext165 import _sql_tile_components

    return f"""
WITH comp AS MATERIALIZED (
  {_sql_tile_components()}
)
SELECT a.comp_id AS comp_a, b.comp_id AS comp_b,
       CAST(MIN(GREATEST(abs(a.ix - b.ix), abs(a.iy - b.iy)))
            AS BIGINT) AS min_cheb
FROM comp a JOIN comp b ON a.comp_id < b.comp_id
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext180():
    return {
        "rect_union_area": q_rect_union_area,
        "region_adjacency_graph": q_region_adjacency_graph,
    }


def build_oracles_ext180():
    return {
        "rect_union_area": _sql_rect_union_area(),
        "region_adjacency_graph": _sql_region_adjacency_graph(),
    }
