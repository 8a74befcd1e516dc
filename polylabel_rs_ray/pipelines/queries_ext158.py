"""Round-3 extension operators, batch 158: integer line-of-sight visibility
+ reciprocal rank fusion.

``tile_visibility`` — exact line-of-sight over the occupied-tile lattice
(the viewshed primitive of raster GIS): from the source tile (the
occupied tile with the most label points, ties to min (ix, iy)), a
target cell is VISIBLE iff no other occupied tile's closed unit square
intersects the open segment between the two cell centers.  Everything
is doubled to stay integral (centers at (2x, 2y), squares spanning
±1), and the segment/box test is the separating-axis theorem on three
axes — x-overlap, y-overlap, and the segment normal (the cross products
of the direction with the four corners must straddle 0).  The engine
evaluates the predicate as one vectorized (targets × blockers × 4
corners) numpy broadcast; the oracle replays the same integer SAT spec
as a NOT EXISTS anti-join over the bounded grid × occ cross join — the
predicate is shared SPEC, the evaluation strategies share nothing.

``rrf_fusion`` — reciprocal rank fusion (the retrieval-ensemble
combiner): parts are ranked independently by exact-cents discounted
revenue and by total quantity (ROW_NUMBER semantics, ties to the lower
part key), and fused by ``rrf = 1/(60+r_rev) + 1/(60+r_qty)`` kept as
the EXACT rational ``(120+r_rev+r_qty, (60+r_rev)(60+r_qty))`` — libm
floats never touch the ordering.  Engine: one map-side-combined pass
over lineitem builds the part-bounded aggregate table, ranks and the
top-20 fuse happen on the bounded dimension.  Oracle: two ROW_NUMBER
windows and an ORDER BY on the scaled integer key
``(num·10¹⁸) // den`` — exact because two distinct rationals with
denominators ≤ (60+P)² differ by ≥ 1/(60+P)⁴ > 10⁻¹⁸ for every P this
engine meets (P ≤ 20k parts at sf0.1).

Reference anchors: raster + retrieval families (SURVEY.md §2.3/§2.4);
siblings: edge_supercover_stats (integer segment rasterization),
tile_chebyshev_dt, bm25_search (a ranking RRF fuses),
nation_rank_concordance (exact rank machinery).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

RRF_K = 60
RRF_TOPN = 20


# --------------------------------------------------------------------------
# tile_visibility
# --------------------------------------------------------------------------


def q_tile_visibility(sf_dir: str):
    from .queries_ext156 import _lattice

    import ray
    lat = _lattice(sf_dir)  # [ix, iy] counts
    n = lat.shape[0]
    ox, oy = np.nonzero(lat > 0)
    cnt = lat[ox, oy]
    # source: max count, ties to min (ix, iy)
    order = np.lexsort((oy, ox, -cnt))
    sx, sy = int(ox[order[0]]), int(oy[order[0]])

    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    tx = gx.ravel().astype(np.int64)
    ty = gy.ravel().astype(np.int64)
    T = tx.size
    B = ox.size

    # doubled coords: S=(2sx,2sy), T=(2tx,2ty), blocker square +-1
    dx = (2 * tx - 2 * sx)[:, None]             # [T,1]
    dy = (2 * ty - 2 * sy)[:, None]
    bx = (2 * ox.astype(np.int64))[None, :]     # [1,B]
    by = (2 * oy.astype(np.int64))[None, :]

    # axis overlap (closed): [min(Sx,Tx), max(Sx,Tx)] vs [bx-1, bx+1]
    sxx = np.int64(2 * sx)
    syy = np.int64(2 * sy)
    lox = np.minimum(sxx, 2 * tx)[:, None]
    hix = np.maximum(sxx, 2 * tx)[:, None]
    loy = np.minimum(syy, 2 * ty)[:, None]
    hiy = np.maximum(syy, 2 * ty)[:, None]
    ax_ok = (np.maximum(lox, bx - 1) <= np.minimum(hix, bx + 1)) & \
            (np.maximum(loy, by - 1) <= np.minimum(hiy, by + 1))

    # segment-normal axis: cross(d, corner - S) over the 4 corners
    cxs = bx - sxx  # [T?,B] broadcast: bx is [1,B], sxx scalar -> [1,B]
    cys = by - syy
    f1 = dx * (cys - 1) - dy * (cxs - 1)
    f2 = dx * (cys - 1) - dy * (cxs + 1)
    f3 = dx * (cys + 1) - dy * (cxs - 1)
    f4 = dx * (cys + 1) - dy * (cxs + 1)
    fmin = np.minimum(np.minimum(f1, f2), np.minimum(f3, f4))
    fmax = np.maximum(np.maximum(f1, f2), np.maximum(f3, f4))
    line_ok = (fmin <= 0) & (fmax >= 0)

    hit = ax_ok & line_ok
    # exclude the source cell and the target cell as blockers
    is_src = (ox[None, :] == sx) & (oy[None, :] == sy)
    is_tgt = (ox[None, :] == tx[:, None]) & (oy[None, :] == ty[:, None])
    blocked = (hit & ~is_src & ~is_tgt).any(axis=1)

    return ray.data.from_arrow(pa.table({
        "ix": pa.array(tx, type=pa.int64()),
        "iy": pa.array(ty, type=pa.int64()),
        "visible": pa.array((~blocked).astype(np.int64), type=pa.int64()),
    }))


def _sql_tile_visibility() -> str:
    from .queries_ext156 import _sql_grid_cte

    return _sql_grid_cte() + """
, src AS MATERIALIZED (
  SELECT ix AS sx, iy AS sy FROM occ
  ORDER BY c DESC, ix, iy LIMIT 1
)
SELECT g.ix, g.iy,
       CAST(CASE WHEN EXISTS (
         SELECT 1 FROM occ o, src s
         WHERE NOT (o.ix = s.sx AND o.iy = s.sy)
           AND NOT (o.ix = g.ix AND o.iy = g.iy)
           -- closed axis overlap in doubled coordinates
           AND GREATEST(LEAST(2*s.sx, 2*g.ix), 2*o.ix - 1)
               <= LEAST(GREATEST(2*s.sx, 2*g.ix), 2*o.ix + 1)
           AND GREATEST(LEAST(2*s.sy, 2*g.iy), 2*o.iy - 1)
               <= LEAST(GREATEST(2*s.sy, 2*g.iy), 2*o.iy + 1)
           -- segment-normal: corner crosses straddle zero
           AND LEAST(
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy-1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx-1),
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy-1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx+1),
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy+1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx-1),
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy+1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx+1)
               ) <= 0
           AND GREATEST(
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy-1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx-1),
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy-1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx+1),
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy+1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx-1),
                 (2*g.ix-2*s.sx)*(2*o.iy-2*s.sy+1) - (2*g.iy-2*s.sy)*(2*o.ix-2*s.sx+1)
               ) >= 0
       ) THEN 0 ELSE 1 END AS BIGINT) AS visible
FROM grid g
"""


# --------------------------------------------------------------------------
# rrf_fusion
# --------------------------------------------------------------------------


def q_rrf_fusion(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_quantity"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        disc = np.round(
            batch.column("l_discount").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "p": pc.cast(batch.column("l_partkey"), pa.int64()),
            "rev": pa.array(cents * (100 - disc), type=pa.int64()),
            "qty": pa.array(
                batch.column("l_quantity").to_numpy().astype(np.int64),
                type=pa.int64()),
        })

    agg = grouped_aggregate(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["p"], [("sum", "rev", "rev"), ("sum", "qty", "qty")],
    ).to_pandas()  # bounded: part dimension

    p = agg["p"].to_numpy().astype(np.int64)
    rev = agg["rev"].to_numpy().astype(np.int64)
    qty = agg["qty"].to_numpy().astype(np.int64)
    # ROW_NUMBER semantics: value desc, part key asc
    r_rev = np.empty(len(p), dtype=np.int64)
    r_rev[np.lexsort((p, -rev))] = np.arange(1, len(p) + 1)
    r_qty = np.empty(len(p), dtype=np.int64)
    r_qty[np.lexsort((p, -qty))] = np.arange(1, len(p) + 1)

    num = 2 * RRF_K + r_rev + r_qty
    den = (RRF_K + r_rev) * (RRF_K + r_qty)
    key = [(int(nu) * 10**18) // int(de) for nu, de in zip(num, den)]
    order = sorted(range(len(p)), key=lambda i: (-key[i], int(p[i])))
    top = order[:RRF_TOPN]
    return ray.data.from_arrow(pa.table({
        "p_partkey": pa.array(p[top], type=pa.int64()),
        "rank_rev": pa.array(r_rev[top], type=pa.int64()),
        "rank_qty": pa.array(r_qty[top], type=pa.int64()),
        "rrf_num": pa.array(num[top], type=pa.int64()),
        "rrf_den": pa.array(den[top], type=pa.int64()),
    }))


def _sql_rrf_fusion() -> str:
    return f"""
WITH agg AS MATERIALIZED (
  SELECT l_partkey AS p,
         SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS rev,
         SUM(CAST(l_quantity AS BIGINT)) AS qty
  FROM lineitem GROUP BY 1
), ranked AS MATERIALIZED (
  SELECT p,
         ROW_NUMBER() OVER (ORDER BY rev DESC, p) AS r_rev,
         ROW_NUMBER() OVER (ORDER BY qty DESC, p) AS r_qty
  FROM agg
)
SELECT CAST(p AS BIGINT) AS p_partkey,
       CAST(r_rev AS BIGINT) AS rank_rev,
       CAST(r_qty AS BIGINT) AS rank_qty,
       CAST({2 * RRF_K} + r_rev + r_qty AS BIGINT) AS rrf_num,
       CAST(({RRF_K} + r_rev) * ({RRF_K} + r_qty) AS BIGINT) AS rrf_den
FROM ranked
ORDER BY (CAST({2 * RRF_K} + r_rev + r_qty AS HUGEINT)
          * 1000000000000000000)
         // (({RRF_K} + r_rev) * ({RRF_K} + r_qty)) DESC, p
LIMIT {RRF_TOPN}
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext158():
    return {
        "tile_visibility": q_tile_visibility,
        "rrf_fusion": q_rrf_fusion,
    }


def build_oracles_ext158():
    return {
        "tile_visibility": _sql_tile_visibility(),
        "rrf_fusion": _sql_rrf_fusion(),
    }
