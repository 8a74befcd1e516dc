"""Round-3 extension operators, batch 160: largest empty square +
longest increasing subsequence.

``tile_max_empty_square`` — the facility-siting primitive on the tile
raster: for every lattice cell, the side of the largest all-EMPTY
square whose bottom-right corner (in (ix, iy) order) is that cell
(0 if the cell itself is occupied).  The engine runs the classic
min-of-three DP ``M[x][y] = empty(x,y) · (1 + min(M[x-1][y],
M[x][y-1], M[x-1][y-1]))`` over the bounded lattice; the oracle shares
no recurrence — it takes, per cell, the MAX k over ``k ≤
min(ix, iy) + 1`` such that NOT EXISTS an occupied tile inside the
k×k window ``[ix-k+1, ix] × [iy-k+1, iy]`` (bounded grid × side ×
anti-join, ≤ 33k candidate windows).  The occupied set is sparse on
this corpus, so the EMPTY-square variant is the non-trivial one
(occupied squares max out at 1×1 at every scale factor — measured).

``lis_per_user`` — longest strictly-increasing subsequence of each
user's event values (cents-exact), in (ts, event_id) order: the
sequence-analysis primitive behind trend mining.  The engine runs
O(n log n) PATIENCE SORTING per user inside co-partitioned
``map_groups`` (bisect on the tails array); the oracle is a genuinely
different algorithm — the O(n²) chain-extension DP expressed as a
recursive CTE whose UNION-deduped state is (user, pos, value, chain
length), bounded by Σᵢ LIS_i rows.  Patience length == DP max length
is the classical duality (Dilworth / RSK), so agreement here is a
cross-algorithm proof, not a replay.

Reference anchors: raster + behavioral families (SURVEY.md §2.3/§2.4);
siblings: tile_seam_dp / tile_chebyshev_dt (lattice DPs),
max_histogram_rectangle (largest-area siting), type_streaks /
mann_kendall_stats (ordered-sequence statistics).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map


# --------------------------------------------------------------------------
# tile_max_empty_square
# --------------------------------------------------------------------------


def q_tile_max_empty_square(sf_dir: str):
    from .queries_ext156 import _lattice

    import ray
    lat = _lattice(sf_dir)  # [ix, iy]
    n = lat.shape[0]
    empty = (lat == 0).astype(np.int64)
    M = np.zeros((n, n), dtype=np.int64)
    M[0, :] = empty[0, :]
    M[:, 0] = empty[:, 0]
    for x in range(1, n):
        for y in range(1, n):
            if empty[x, y]:
                M[x, y] = 1 + min(M[x - 1, y], M[x, y - 1], M[x - 1, y - 1])

    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(gx.ravel(), type=pa.int64()),
        "iy": pa.array(gy.ravel(), type=pa.int64()),
        "max_empty_sq": pa.array(M.ravel(), type=pa.int64()),
    }))


def _sql_tile_max_empty_square() -> str:
    from ..config import DEFAULT_TILE_RES
    from .queries_ext156 import _sql_grid_cte

    n = 1 << DEFAULT_TILE_RES
    return _sql_grid_cte() + f"""
, cand AS MATERIALIZED (
  SELECT g.ix, g.iy, k.range AS k
  FROM grid g JOIN range(1, {n + 1}) k
    ON k.range <= LEAST(g.ix, g.iy) + 1
  WHERE NOT EXISTS (
    SELECT 1 FROM occ o
    WHERE o.ix BETWEEN g.ix - k.range + 1 AND g.ix
      AND o.iy BETWEEN g.iy - k.range + 1 AND g.iy
  )
)
SELECT g.ix, g.iy,
       CAST(COALESCE(MAX(c.k), 0) AS BIGINT) AS max_empty_sq
FROM grid g
LEFT JOIN cand c ON c.ix = g.ix AND c.iy = g.iy
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# lis_per_user
# --------------------------------------------------------------------------


def q_lis_per_user(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id", "value"])

    def per_user(group: pa.Table) -> pa.Table:
        uid = int(group.column("user_id")[0].as_py())
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        v = np.round(group.column("value").to_numpy() * 100.0).astype(np.int64)
        order = np.lexsort((eid, ts))
        tails: list[int] = []
        for x in v[order]:
            i = bisect_left(tails, int(x))
            if i == len(tails):
                tails.append(int(x))
            else:
                tails[i] = int(x)
        return pa.table({
            "user_id": pa.array([uid], type=pa.int64()),
            "n_events": pa.array([len(v)], type=pa.int64()),
            "lis_len": pa.array([len(tails)], type=pa.int64()),
        })

    return group_map(ds, "user_id", per_user)


SQL_LIS_PER_USER = """
WITH RECURSIVE iv AS MATERIALIZED (
  SELECT user_id,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS pos,
         CAST(ROUND(value * 100) AS BIGINT) AS v
  FROM events
), chain AS (
  SELECT user_id, pos, v, 1 AS l FROM iv
  UNION
  SELECT j.user_id, j.pos, j.v, c.l + 1
  FROM chain c
  JOIN iv j ON j.user_id = c.user_id AND j.pos > c.pos AND j.v > c.v
)
SELECT c.user_id,
       CAST(n.n AS BIGINT) AS n_events,
       CAST(MAX(c.l) AS BIGINT) AS lis_len
FROM chain c
JOIN (SELECT user_id, COUNT(*) AS n FROM iv GROUP BY 1) n
  ON n.user_id = c.user_id
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext160():
    return {
        "tile_max_empty_square": q_tile_max_empty_square,
        "lis_per_user": q_lis_per_user,
    }


def build_oracles_ext160():
    return {
        "tile_max_empty_square": _sql_tile_max_empty_square(),
        "lis_per_user": SQL_LIS_PER_USER,
    }
