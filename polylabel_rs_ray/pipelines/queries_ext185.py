"""Round-3 extension operators, batch 185: percolation threshold scan +
per-user activity h-index.

``tile_percolation_scan`` — the percolation question over the label
raster: for every occupancy threshold t ∈ [1, 8], take the "open"
cells (tile count ≥ t) of the res-5 lattice and report how many are
open and whether an open 4-connected path crosses left↔right and
top↔bottom.  The open set shrinks monotonically in t, so the scan
traces the percolation transition of the label distribution
(connectivity pytest-pinned monotone).  Engine: one BFS flood per
threshold from each entry edge (masked dilation on the bounded
lattice).  Oracle: per threshold, a machine-generated recursive-CTE
reachability from the left column / top row with an exists-crossing
test — per-t CTEs share nothing with the flood masks.

``user_h_index`` — the Hirsch index transplanted to activity streams:
per user, the largest h such that at least h distinct DAYS carry at
least h events each (the "sustained engagement" score used in
curation heuristics).  Engine: per-(user, day) counts through the
map-side combine, then one vectorized rank-vs-count fold per user
partition (sort counts desc; h = max rank with count ≥ rank).
Oracle: window ranks with a MAX FILTER.

Reference anchors: raster-physics + user-analytics families
(SURVEY.md §2.3/§2.4); siblings: tile_components / tile_enclosed_
holes (connectivity machinery), user_activity_coverage / users_every_
week (per-user day statistics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

PERC_RES = 5
PERC_MAX_T = 8


# --------------------------------------------------------------------------
# tile_percolation_scan
# --------------------------------------------------------------------------


def _floods(open_: np.ndarray, seed_mask: np.ndarray) -> np.ndarray:
    reach = seed_mask & open_
    while True:
        grow = reach.copy()
        grow[1:, :] |= reach[:-1, :]
        grow[:-1, :] |= reach[1:, :]
        grow[:, 1:] |= reach[:, :-1]
        grow[:, :-1] |= reach[:, 1:]
        grow &= open_
        if np.array_equal(grow, reach):
            return reach
        reach = grow


def q_tile_percolation_scan(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, PERC_RES)
    n = lat.shape[0]
    ts, opens, lr, tb = [], [], [], []
    for t in range(1, PERC_MAX_T + 1):
        open_ = lat >= t
        left = np.zeros_like(open_)
        left[0, :] = True
        top = np.zeros_like(open_)
        top[:, 0] = True
        # x is axis 0: left-right = x from 0 to n-1
        r_lr = _floods(open_, left)
        r_tb = _floods(open_, top)
        ts.append(t)
        opens.append(int(open_.sum()))
        lr.append(int(bool(r_lr[n - 1, :].any())))
        tb.append(int(bool(r_tb[:, n - 1].any())))
    return ray.data.from_arrow(pa.table({
        "t": pa.array(ts, type=pa.int64()),
        "n_open": pa.array(opens, type=pa.int64()),
        "crosses_lr": pa.array(lr, type=pa.int64()),
        "crosses_tb": pa.array(tb, type=pa.int64()),
    }))


def _sql_tile_percolation_scan() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << PERC_RES
    body = _sql_grid_cte(PERC_RES)
    parts = ["WITH RECURSIVE " + body[len("WITH "):]]
    selects = []
    for t in range(1, PERC_MAX_T + 1):
        parts.append(f""",
open_{t} AS MATERIALIZED (
  SELECT ix, iy FROM occ WHERE c >= {t}
), adj_{t} AS MATERIALIZED (
  SELECT a.ix AS ax, a.iy AS ay, b.ix AS bx, b.iy AS by_
  FROM open_{t} a JOIN open_{t} b
    ON abs(a.ix - b.ix) + abs(a.iy - b.iy) = 1
), lr_{t} AS (
  SELECT ix, iy FROM open_{t} WHERE ix = 0
  UNION
  SELECT a.bx, a.by_ FROM lr_{t} r
  JOIN adj_{t} a ON a.ax = r.ix AND a.ay = r.iy
), tb_{t} AS (
  SELECT ix, iy FROM open_{t} WHERE iy = 0
  UNION
  SELECT a.bx, a.by_ FROM tb_{t} r
  JOIN adj_{t} a ON a.ax = r.ix AND a.ay = r.iy
)""")
        selects.append(f"""
SELECT {t} AS t,
       (SELECT COUNT(*) FROM open_{t}) AS n_open,
       (SELECT CASE WHEN EXISTS (SELECT 1 FROM lr_{t}
                                 WHERE ix = {n - 1})
               THEN 1 ELSE 0 END) AS crosses_lr,
       (SELECT CASE WHEN EXISTS (SELECT 1 FROM tb_{t}
                                 WHERE iy = {n - 1})
               THEN 1 ELSE 0 END) AS crosses_tb""")
    parts.append(f"""
SELECT CAST(t AS BIGINT) AS t, CAST(n_open AS BIGINT) AS n_open,
       CAST(crosses_lr AS BIGINT) AS crosses_lr,
       CAST(crosses_tb AS BIGINT) AS crosses_tb
FROM ({' UNION ALL '.join(selects)})""")
    return "".join(parts)


# --------------------------------------------------------------------------
# user_h_index
# --------------------------------------------------------------------------


def q_user_h_index(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = (pc.cast(batch.column("ts"), pa.int64()).to_numpy()
               // 86_400_000_000)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "day": pa.array(day, type=pa.int64()),
            "one": pa.array(np.ones(len(uid), dtype=np.int64)),
        })

    per_day = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"], [("sum", "one", "n")],
    )

    def per_part(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        cnt = group.column("n").to_numpy().astype(np.int64)
        order = np.lexsort((-cnt, uid))
        uid, cnt = uid[order], cnt[order]
        m = len(uid)
        seg_mask = np.empty(m, dtype=bool)
        seg_mask[0] = True
        np.not_equal(uid[1:], uid[:-1], out=seg_mask[1:])
        seg_start_idx = np.flatnonzero(seg_mask)
        seg_len = np.diff(np.append(seg_start_idx, m)).astype(np.int64)
        seg_start = np.repeat(seg_start_idx, seg_len)
        rank = np.arange(m, dtype=np.int64) - seg_start + 1
        qual = np.where(cnt >= rank, rank, 0)
        h = np.maximum.reduceat(qual, seg_start_idx)
        return pa.table({
            "user_id": pa.array(uid[seg_start_idx], type=pa.int64()),
            "n_days": pa.array(seg_len, type=pa.int64()),
            "h_index": pa.array(h, type=pa.int64()),
        })

    return hash_exchange(per_day, "user_id", per_part, n_parts)


SQL_USER_H_INDEX = """
WITH pd AS MATERIALIZED (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), ranked AS (
  SELECT user_id, n,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY n DESC) AS rn
  FROM pd
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_days,
       CAST(COALESCE(MAX(rn) FILTER (WHERE n >= rn), 0) AS BIGINT)
         AS h_index
FROM ranked GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext185():
    return {
        "tile_percolation_scan": q_tile_percolation_scan,
        "user_h_index": q_user_h_index,
    }


def build_oracles_ext185():
    return {
        "tile_percolation_scan": _sql_tile_percolation_scan(),
        "user_h_index": SQL_USER_H_INDEX,
    }
