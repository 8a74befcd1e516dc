"""Round-3 extension operators, batch 184: discrete Hough line peaks +
zigzag-varint delta cost.

``tile_hough_peaks`` — the line-detection primitive over the occupied
res-5 lattice, in its exact discrete form: four rational directions
(horizontal, vertical and the two diagonals) project every occupied
cell to an integer offset (y, x, x−y, x+y respectively), and every
(direction, offset) bucket with at least HOUGH_MIN collinear cells is
a detected line.  Integer projections make the Hough accumulator
exactly replayable — no angle quantization ambiguity.  Engine: four
vectorized projections + bincounts on the bounded occupied set.
Oracle: one UNION of four projected GROUP BYs with a HAVING floor.

``zigzag_varint_cost`` — the signed-delta wire-format audit: the
day-over-day revenue differences (signed!) map through the protobuf
zigzag transform ``z = 2|d| − [d < 0]`` and each z costs
``max(1, ceil(bits(z)/7))`` varint bytes; emitted per byte-width:
delta count and total bytes.  The engine computes zigzag with
arithmetic-shift bit tricks and widths by bit scan; the oracle
replays with CASE sign arithmetic and a MIN-over-shifts width pick —
the signed companion of ``varint_size_estimate``.

Reference anchors: raster-detection + encoding families (SURVEY.md
§2.3/§2.4); siblings: edge_orientation_spectrum (directional
statistics), tile_visibility (collinearity geometry),
varint_size_estimate / dod_encoding_cost (wire-size arithmetic).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

HOUGH_RES = 5
HOUGH_MIN = 3
HOUGH_DIRS = ("h", "v", "diag", "anti")


# --------------------------------------------------------------------------
# tile_hough_peaks
# --------------------------------------------------------------------------


def q_tile_hough_peaks(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, HOUGH_RES)
    occ = lat > 0
    ox, oy = np.nonzero(occ)
    ox = ox.astype(np.int64)
    oy = oy.astype(np.int64)
    projs = {
        "h": oy,           # horizontal line y = c
        "v": ox,           # vertical line x = c
        "diag": ox - oy,   # diagonal x - y = c
        "anti": ox + oy,   # anti-diagonal x + y = c
    }
    dirs, offs, cnts = [], [], []
    for name in HOUGH_DIRS:
        p = projs[name]
        vals, counts = np.unique(p, return_counts=True)
        keep = counts >= HOUGH_MIN
        for v, c in zip(vals[keep], counts[keep]):
            dirs.append(name)
            offs.append(int(v))
            cnts.append(int(c))
    return ray.data.from_arrow(pa.table({
        "direction": pa.array(dirs, type=pa.string()),
        "offset": pa.array(offs, type=pa.int64()),
        "n_cells": pa.array(cnts, type=pa.int64()),
    }))


def _sql_tile_hough_peaks() -> str:
    from .queries_ext156 import _sql_grid_cte

    return _sql_grid_cte(HOUGH_RES) + f"""
SELECT direction, CAST(off AS BIGINT) AS "offset",
       CAST(n_cells AS BIGINT) AS n_cells
FROM (
  SELECT 'h' AS direction, iy AS off, COUNT(*) AS n_cells
  FROM occ GROUP BY 2 HAVING COUNT(*) >= {HOUGH_MIN}
  UNION ALL
  SELECT 'v', ix, COUNT(*) FROM occ GROUP BY 2
  HAVING COUNT(*) >= {HOUGH_MIN}
  UNION ALL
  SELECT 'diag', ix - iy, COUNT(*) FROM occ GROUP BY 2
  HAVING COUNT(*) >= {HOUGH_MIN}
  UNION ALL
  SELECT 'anti', ix + iy, COUNT(*) FROM occ GROUP BY 2
  HAVING COUNT(*) >= {HOUGH_MIN}
)
"""


# --------------------------------------------------------------------------
# zigzag_varint_cost
# --------------------------------------------------------------------------


def q_zigzag_varint_cost(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    daily = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "cents", "cents")],
    ).to_pandas().sort_values("day")
    cents = daily["cents"].to_numpy().astype(np.int64)
    d = np.diff(cents)
    z = (d << 1) ^ (d >> 63)  # protobuf zigzag via arithmetic shift
    nbits = np.where(z == 0, 1,
                     np.floor(np.log2(np.maximum(
                         z.astype(np.float64), 1))).astype(np.int64) + 1)
    nbytes = (nbits + 6) // 7
    t = {}
    for b in nbytes.tolist():
        t[b] = t.get(b, 0) + 1
    widths = sorted(t)
    return ray.data.from_arrow(pa.table({
        "n_bytes": pa.array(widths, type=pa.int64()),
        "n_deltas": pa.array([t[w] for w in widths], type=pa.int64()),
        "total_bytes": pa.array([w * t[w] for w in widths],
                                type=pa.int64()),
    }))


SQL_ZIGZAG_VARINT_COST = """
WITH daily AS MATERIALIZED (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT)
           AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
), deltas AS MATERIALIZED (
  SELECT cents - LAG(cents) OVER (ORDER BY day) AS d FROM daily
  QUALIFY d IS NOT NULL
), zz AS MATERIALIZED (
  SELECT CASE WHEN d < 0 THEN -2 * d - 1 ELSE 2 * d END AS z FROM deltas
), w AS (
  -- widths 1..8 by shift probe; anything >= 2^56 takes 9 bytes
  -- (z < 2^63 always, and 1 << 63 would overflow BIGINT)
  SELECT CASE WHEN z = 0 THEN 1 ELSE
    COALESCE((SELECT MIN(r.range) FROM range(1, 9) r
              WHERE z < (1::BIGINT << (7 * r.range))), 9) END AS n_bytes
  FROM zz
)
SELECT CAST(n_bytes AS BIGINT) AS n_bytes,
       CAST(COUNT(*) AS BIGINT) AS n_deltas,
       CAST(n_bytes * COUNT(*) AS BIGINT) AS total_bytes
FROM w GROUP BY n_bytes
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext184():
    return {
        "tile_hough_peaks": q_tile_hough_peaks,
        "zigzag_varint_cost": q_zigzag_varint_cost,
    }


def build_oracles_ext184():
    return {
        "tile_hough_peaks": _sql_tile_hough_peaks(),
        "zigzag_varint_cost": SQL_ZIGZAG_VARINT_COST,
    }
