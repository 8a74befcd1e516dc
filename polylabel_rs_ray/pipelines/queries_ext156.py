"""Round-3 extension operators, batch 156: Chebyshev distance transform +
vertical seam DP over the occupied-tile lattice.

``tile_chebyshev_dt`` — the exact L-inf (chessboard / king-move) distance
transform of the 32x32 tile raster: for every lattice cell, the Chebyshev
distance to the nearest OCCUPIED tile (a tile holding at least one label
point).  The occupied set comes from the distributed groupby(tile_id)
shuffle (``q_tile_counts``); the transform itself runs on the bounded
lattice via the classical two-pass chamfer DP (forward row-major scan
over the {W, NW, N, NE} neighbors, backward scan over {E, SE, S, SW}),
which is EXACT for the king-move metric because on the integer lattice
the 8-connected chamfer distance with unit weights equals
``max(|dx|, |dy|)``.  The oracle shares none of that machinery: it
brute-forces ``min over occupied of GREATEST(ABS(dx), ABS(dy))`` with a
dense-grid cross join (bounded 1024 x <=1024 pairs at any scale factor,
because the lattice — not the data — bounds both sides).

``tile_seam_dp`` — the full value table of the vertical max-mass seam DP
(seam carving's core recurrence, maximizing instead of minimizing so the
seam is non-trivial on sparse lattices): ``M[0][x] = w[0][x]``,
``M[y][x] = w[y][x] + max(M[y-1][x-1], M[y-1][x], M[y-1][x+1])`` where
``w`` is the per-tile label count (0 for empty tiles).  Emitting the
whole 1024-cell table (not a backtracked path) keeps the contract
tie-break-free while pinning every DP state exactly.  The engine folds
the recurrence vectorized (three shifted int64 maxima per row); the
oracle is a machine-generated 32-level unrolled CTE ladder, one level
per lattice row.

Reference anchors: raster/tile family (SURVEY.md §2.3 [north-rule]
tiling); siblings: tile_haar_energy (bounded-lattice driver fold after
the distributed shuffle), tile_heat_smooth, grid_coverage, nn_dist_hist
(spatial proximity statistics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _lattice(sf_dir: str) -> np.ndarray:
    """Distributed tile counts -> dense bounded (n x n) int64 lattice,
    indexed [ix, iy]."""
    from ..config import DEFAULT_TILE_RES
    from ..stages.cells import decode_cells
    from .queries import q_tile_counts

    tc = q_tile_counts(sf_dir).to_pandas()  # bounded 32x32
    n = 1 << DEFAULT_TILE_RES
    lat = np.zeros((n, n), dtype=np.int64)
    ix, iy, _res = decode_cells(tc["tile_id"].to_numpy().astype(np.int64))
    lat[ix, iy] = tc["n_points"].to_numpy().astype(np.int64)
    return lat


def _sql_grid_cte(tile_res: int | None = None) -> str:
    """labels + occupied lattice counts, shared by the lattice oracles."""
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
    from .queries import _sql_dyadic_labels_cte

    n = 1 << (DEFAULT_TILE_RES if tile_res is None else tile_res)
    cell = WORLD_SIZE / n
    gx = (f"LEAST({n - 1}, GREATEST(0, CAST(FLOOR((label_x - "
          f"({WORLD_MIN!r})) / {cell!r}) AS BIGINT)))")
    gy = (f"LEAST({n - 1}, GREATEST(0, CAST(FLOOR((label_y - "
          f"({WORLD_MIN!r})) / {cell!r}) AS BIGINT)))")
    return (f"WITH labels AS MATERIALIZED ({_sql_dyadic_labels_cte()}), "
            f"occ AS MATERIALIZED (SELECT {gx} AS ix, {gy} AS iy, "
            f"CAST(COUNT(*) AS BIGINT) AS c FROM labels GROUP BY 1, 2), "
            f"grid AS MATERIALIZED (SELECT gx.range AS ix, gy.range AS iy "
            f"FROM range(0, {n}) gx, range(0, {n}) gy)")


# --------------------------------------------------------------------------
# tile_chebyshev_dt
# --------------------------------------------------------------------------


def q_tile_chebyshev_dt(sf_dir: str):
    import ray
    lat = _lattice(sf_dir)
    n = lat.shape[0]
    inf = np.int64(4 * n)  # > any reachable king-move distance
    dt = np.where(lat > 0, np.int64(0), inf)

    # forward pass: W, NW, N, NE (row-major in y; x is axis 0)
    for y in range(n):
        for x in range(n):
            best = dt[x, y]
            if y > 0:
                best = min(best, dt[x, y - 1] + 1)          # N
                if x > 0:
                    best = min(best, dt[x - 1, y - 1] + 1)  # NW
                if x < n - 1:
                    best = min(best, dt[x + 1, y - 1] + 1)  # NE
            if x > 0:
                best = min(best, dt[x - 1, y] + 1)          # W
            dt[x, y] = best
    # backward pass: E, SE, S, SW
    for y in range(n - 1, -1, -1):
        for x in range(n - 1, -1, -1):
            best = dt[x, y]
            if y < n - 1:
                best = min(best, dt[x, y + 1] + 1)          # S
                if x > 0:
                    best = min(best, dt[x - 1, y + 1] + 1)  # SW
                if x < n - 1:
                    best = min(best, dt[x + 1, y + 1] + 1)  # SE
            if x < n - 1:
                best = min(best, dt[x + 1, y] + 1)          # E
            dt[x, y] = best

    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(xs.ravel(), type=pa.int64()),
        "iy": pa.array(ys.ravel(), type=pa.int64()),
        "dt": pa.array(dt.ravel(), type=pa.int64()),
    }))


def _sql_tile_chebyshev_dt() -> str:
    return _sql_grid_cte() + """
SELECT g.ix, g.iy,
       CAST(MIN(GREATEST(ABS(g.ix - o.ix), ABS(g.iy - o.iy))) AS BIGINT)
         AS dt
FROM grid g CROSS JOIN occ o
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# tile_seam_dp
# --------------------------------------------------------------------------


def q_tile_seam_dp(sf_dir: str):
    import ray
    lat = _lattice(sf_dir)  # [ix, iy]
    n = lat.shape[0]
    w = lat.T  # [iy, ix]: rows are lattice rows, seam runs top->bottom
    M = np.zeros_like(w)
    M[0] = w[0]
    for y in range(1, n):
        prev = M[y - 1]
        best = prev.copy()
        best[1:] = np.maximum(best[1:], prev[:-1])   # NW neighbor
        best[:-1] = np.maximum(best[:-1], prev[1:])  # NE neighbor
        M[y] = w[y] + best

    ys, xs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ray.data.from_arrow(pa.table({
        "iy": pa.array(ys.ravel(), type=pa.int64()),
        "ix": pa.array(xs.ravel(), type=pa.int64()),
        "best_mass": pa.array(M.ravel(), type=pa.int64()),
    }))


def _sql_tile_seam_dp() -> str:
    from ..config import DEFAULT_TILE_RES

    n = 1 << DEFAULT_TILE_RES
    parts = ["""
dense AS MATERIALIZED (
  SELECT g.ix, g.iy, COALESCE(o.c, 0) AS c
  FROM grid g LEFT JOIN occ o ON o.ix = g.ix AND o.iy = g.iy
)""", """
m0 AS MATERIALIZED (SELECT ix, c AS m FROM dense WHERE iy = 0)"""]
    sel = [f"SELECT CAST(0 AS BIGINT) AS iy, ix, "
           f"CAST(m AS BIGINT) AS best_mass FROM m0"]
    for y in range(1, n):
        parts.append(f"""
m{y} AS MATERIALIZED (
  SELECT d.ix, MAX(d.c + p.m) AS m
  FROM dense d JOIN m{y - 1} p ON ABS(p.ix - d.ix) <= 1
  WHERE d.iy = {y}
  GROUP BY d.ix
)""")
        sel.append(f"SELECT CAST({y} AS BIGINT) AS iy, ix, "
                   f"CAST(m AS BIGINT) AS best_mass FROM m{y}")
    return (_sql_grid_cte() + ", " + ",".join(parts) + " "
            + " UNION ALL ".join(sel))


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext156():
    return {
        "tile_chebyshev_dt": q_tile_chebyshev_dt,
        "tile_seam_dp": q_tile_seam_dp,
    }


def build_oracles_ext156():
    return {
        "tile_chebyshev_dt": _sql_tile_chebyshev_dt(),
        "tile_seam_dp": _sql_tile_seam_dp(),
    }
