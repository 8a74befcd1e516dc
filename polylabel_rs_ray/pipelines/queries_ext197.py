"""Round-3 extension operators, batch 197: maximum-sum submatrix +
Josephus survivor.

``max_sum_submatrix`` — the 2-D Kadane problem over the ZERO-SUM
transform of the res-5 count lattice (cell value = count·1024 −
total, integer and globally zero-sum, so the maximising rectangle is
a genuine dense region, not the whole grid): the axis-aligned
rectangle with the maximum value sum, ties to the lexicographically
smallest (x0, y0, x1, y1).  Engine: the O(n³) column-compression
Kadane (every (x0, x1) row band reduced to a 1-D max-subarray scan).
Oracle: ALL O(n⁴) rectangles evaluated via 2-D prefix sums with a
window argmin pick — exhaustive where the engine is clever.

``josephus_survivor`` — the classic elimination recurrence executed
on the user roster: people = distinct users ordered by user_id,
every JOSEPHUS_K-th eliminated in a circle; emitted: n_users, the
0-based survivor position J(n) and the surviving user_id.  Engine:
the O(n) fold ``J(m) = (J(m−1) + k) mod m``.  Oracle: the SAME
recurrence as a single-row recursive CTE chain (the scalar-state
recursion DuckDB's UNION-dedup recursion handles exactly), joined
back to the ranked roster.

Reference anchors: raster-optimization + recurrence families
(SURVEY.md §2.3/§2.4); siblings: tile_max_empty_square (window-DP
contracts), vopt_histogram_dp, vocab_set_cover (scalar-state
recursive oracles).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

KAD_RES = 5
JOSEPHUS_K = 7


# --------------------------------------------------------------------------
# max_sum_submatrix
# --------------------------------------------------------------------------


def q_max_sum_submatrix(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, KAD_RES).astype(np.int64)
    n = lat.shape[0]
    total = int(lat.sum())
    v = lat * (n * n) - total  # zero-sum integer transform
    best = None  # (-sum, x0, y0, x1, y1)
    for x0 in range(n):
        band = np.zeros(n, dtype=np.int64)
        for x1 in range(x0, n):
            band += v[x1, :]
            # 1-D max subarray with lexicographic tie rule: scan all
            # (y0, y1) via prefix minima (exact, still O(n) per band)
            pref = np.r_[0, np.cumsum(band)]
            # for each y1: best y0 minimizes pref[y0]; ties smallest y0
            run_min = np.minimum.accumulate(pref[:-1])
            sums = pref[1:] - run_min
            for y1 in range(n):
                s = int(sums[y1])
                # recover smallest qualifying y0
                y0 = int(np.flatnonzero(
                    pref[:y1 + 1] == run_min[y1])[0])
                cand = (-s, x0, y0, x1, y1)
                if best is None or cand < best:
                    best = cand
    s, x0, y0, x1, y1 = -best[0], best[1], best[2], best[3], best[4]
    return ray.data.from_arrow(pa.table({
        "x0": pa.array([x0], type=pa.int64()),
        "y0": pa.array([y0], type=pa.int64()),
        "x1": pa.array([x1], type=pa.int64()),
        "y1": pa.array([y1], type=pa.int64()),
        "best_sum": pa.array([s], type=pa.int64()),
    }))


def _sql_max_sum_submatrix() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << KAD_RES
    return _sql_grid_cte(KAD_RES) + f"""
, tot AS MATERIALIZED (SELECT SUM(c) AS t FROM occ)
, cellv AS MATERIALIZED (
  SELECT g.ix, g.iy,
         COALESCE(o.c, 0) * {n * n} - (SELECT t FROM tot) AS v
  FROM grid g LEFT JOIN occ o ON o.ix = g.ix AND o.iy = g.iy
), sat2 AS MATERIALIZED (
  -- summed-area table: SAT(x, y) = sum of v over [0..x] x [0..y]
  SELECT c.ix, c.iy,
         SUM(p.vc) AS s
  FROM (SELECT ix, iy FROM grid) c
  JOIN (SELECT ix, iy, v AS vc FROM cellv) p
    ON p.ix <= c.ix AND p.iy <= c.iy
  GROUP BY 1, 2
), rects AS (
  SELECT a.ix AS x0, b.ix AS x1, c.iy AS y0, d.iy AS y1
  FROM (SELECT DISTINCT ix FROM grid) a
  JOIN (SELECT DISTINCT ix FROM grid) b ON b.ix >= a.ix
  CROSS JOIN (SELECT DISTINCT iy FROM grid) c
  JOIN (SELECT DISTINCT iy FROM grid) d ON d.iy >= c.iy
), scored AS (
  SELECT r.x0, r.y0, r.x1, r.y1,
         s11.s
         - COALESCE(s01.s, 0) - COALESCE(s10.s, 0)
         + COALESCE(s00.s, 0) AS s
  FROM rects r
  JOIN sat2 s11 ON s11.ix = r.x1 AND s11.iy = r.y1
  LEFT JOIN sat2 s01 ON s01.ix = r.x0 - 1 AND s01.iy = r.y1
  LEFT JOIN sat2 s10 ON s10.ix = r.x1 AND s10.iy = r.y0 - 1
  LEFT JOIN sat2 s00 ON s00.ix = r.x0 - 1 AND s00.iy = r.y0 - 1
)
SELECT CAST(x0 AS BIGINT) AS x0, CAST(y0 AS BIGINT) AS y0,
       CAST(x1 AS BIGINT) AS x1, CAST(y1 AS BIGINT) AS y1,
       CAST(s AS BIGINT) AS best_sum
FROM (SELECT *, ROW_NUMBER() OVER (ORDER BY s DESC, x0, y0, x1, y1)
        AS rn FROM scored)
WHERE rn = 1
"""


# --------------------------------------------------------------------------
# josephus_survivor
# --------------------------------------------------------------------------


def q_josephus_survivor(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id"),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    users = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], [("sum", "one", "n")],
    ).to_pandas()  # bounded roster
    roster = sorted(users["user_id"].astype(int))
    n = len(roster)
    j = 0
    for m in range(2, n + 1):
        j = (j + JOSEPHUS_K) % m
    return ray.data.from_arrow(pa.table({
        "n_users": pa.array([n], type=pa.int64()),
        "k": pa.array([JOSEPHUS_K], type=pa.int64()),
        "survivor_pos": pa.array([j], type=pa.int64()),
        "survivor_user_id": pa.array([roster[j]], type=pa.int64()),
    }))


SQL_JOSEPHUS_SURVIVOR = f"""
WITH RECURSIVE roster AS MATERIALIZED (
  SELECT DISTINCT user_id FROM events
), nn AS MATERIALIZED (SELECT COUNT(*) AS n FROM roster
), rec AS (
  SELECT 1 AS m, 0 AS j
  UNION ALL
  SELECT m + 1, (j + {JOSEPHUS_K}) % (m + 1)
  FROM rec WHERE m < (SELECT n FROM nn)
), fin AS (
  SELECT j FROM rec WHERE m = (SELECT n FROM nn)
), ranked AS (
  SELECT user_id, ROW_NUMBER() OVER (ORDER BY user_id) - 1 AS pos
  FROM roster
)
SELECT (SELECT CAST(n AS BIGINT) FROM nn) AS n_users,
       CAST({JOSEPHUS_K} AS BIGINT) AS k,
       (SELECT CAST(j AS BIGINT) FROM fin) AS survivor_pos,
       (SELECT CAST(r.user_id AS BIGINT) FROM ranked r, fin f
        WHERE r.pos = f.j) AS survivor_user_id
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext197():
    return {
        "max_sum_submatrix": q_max_sum_submatrix,
        "josephus_survivor": q_josephus_survivor,
    }


def build_oracles_ext197():
    return {
        "max_sum_submatrix": _sql_max_sum_submatrix(),
        "josephus_survivor": SQL_JOSEPHUS_SURVIVOR,
    }
