"""Round-3 extension operators, batch 159: enclosed-hole detection +
interval activity selection.

``tile_enclosed_holes`` — the "lakes" detector of raster morphology:
an EMPTY lattice cell is an enclosed hole iff it cannot reach the
lattice boundary through 4-connected empty cells (occupied tiles are
walls).  Runs at HOLE_RES = 6 (a 64×64 lattice): the standard 32×32
render grid is too sparse to enclose anything on this corpus (0 holes
at every scale factor — measured before shipping, per the
no-trivial-result rule), while res 6 yields 2/2/5 holes at
sf0.001/0.01/0.1.  The engine flood-fills outside-in with an iterative
masked dilation over the bounded lattice; the oracle replays
reachability as a recursive CTE seeded with the boundary empty cells
and expanded through an equi-join on the 4 neighbor offsets (a VALUES
direction table — NOT an |dx|+|dy|=1 theta-join, which would
cross-product every iteration), with UNION dedup guaranteeing
termination.  Output: one row per EMPTY cell with its ``enclosed``
flag.

``activity_selection`` — the classic greedy interval-scheduling
operator, per user: each event spawns the interval ``[s, s + dur)``
with ``s = epoch_us(ts)`` and the deterministic duration ``dur =
60_000_000 · (1 + event_id % 10)`` microseconds; the operator reports
the maximum number of pairwise non-overlapping intervals (touching
allowed: the next start may equal the previous end).  The engine runs
the earliest-end greedy per user inside co-partitioned ``map_groups``
(provably optimal for this problem — the exchange argument — and
pytest cross-checks it against an independent predecessor-DP).  The
chain state is only ``cur_end``, so tie-breaks cannot matter: the next
end is ``MIN(e) over {s >= cur_end}``, which is exactly how the oracle
replays it — a recursive CTE whose recursive term advances every
user's chain by one pick (strictly increasing ``cur_end`` terminates
it).

Reference anchors: raster + behavioral families (SURVEY.md §2.3/§2.4);
siblings: tile_chebyshev_dt / tile_visibility (bounded-lattice ops
after the distributed shuffle), dedup_clusters (recursive-CTE
reachability oracle), user_inactivity_gaps / peak_concurrency
(interval machinery).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

DUR_US = 60_000_000  # 1-minute quantum; dur = DUR_US * (1 + event_id % 10)
HOLE_RES = 6  # 64x64: finest lattice with non-trivial enclosure (see doc)


# --------------------------------------------------------------------------
# tile_enclosed_holes
# --------------------------------------------------------------------------


def _lattice_res(sf_dir: str, tile_res: int) -> np.ndarray:
    """Distributed tile counts at an arbitrary resolution -> dense
    bounded (n x n) int64 lattice, indexed [ix, iy]."""
    from ..stages.cells import decode_cells, encode_stage
    from .agg import grouped_aggregate
    from .queries import _dyadic_labeled

    ds = encode_stage(_dyadic_labeled(sf_dir), tile_res=tile_res)
    tc = grouped_aggregate(
        ds, ["tile_id"], [("count", None, "n_points")],
    ).to_pandas()  # bounded: (2^res)^2
    n = 1 << tile_res
    lat = np.zeros((n, n), dtype=np.int64)
    ix, iy, _res = decode_cells(tc["tile_id"].to_numpy().astype(np.int64))
    lat[ix, iy] = tc["n_points"].to_numpy().astype(np.int64)
    return lat


def q_tile_enclosed_holes(sf_dir: str):
    import ray
    lat = _lattice_res(sf_dir, HOLE_RES)  # [ix, iy]
    n = lat.shape[0]
    empty = lat == 0

    reach = np.zeros((n, n), dtype=bool)
    reach[0, :] = empty[0, :]
    reach[-1, :] = empty[-1, :]
    reach[:, 0] = empty[:, 0]
    reach[:, -1] = empty[:, -1]
    while True:
        grown = reach.copy()
        grown[1:, :] |= reach[:-1, :]
        grown[:-1, :] |= reach[1:, :]
        grown[:, 1:] |= reach[:, :-1]
        grown[:, :-1] |= reach[:, 1:]
        grown &= empty
        if np.array_equal(grown, reach):
            break
        reach = grown

    ex, ey = np.nonzero(empty)
    enclosed = (~reach[ex, ey]).astype(np.int64)
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(ex.astype(np.int64), type=pa.int64()),
        "iy": pa.array(ey.astype(np.int64), type=pa.int64()),
        "enclosed": pa.array(enclosed, type=pa.int64()),
    }))


def _sql_tile_enclosed_holes() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << HOLE_RES
    # note: WITH RECURSIVE must lead, so splice into the grid cte
    body = _sql_grid_cte(HOLE_RES)
    assert body.startswith("WITH ")
    return ("WITH RECURSIVE " + body[len("WITH "):] + f"""
, empty AS MATERIALIZED (
  SELECT g.ix, g.iy FROM grid g
  WHERE NOT EXISTS (SELECT 1 FROM occ o
                    WHERE o.ix = g.ix AND o.iy = g.iy)
), reach AS (
  SELECT ix, iy FROM empty
  WHERE ix = 0 OR iy = 0 OR ix = {n - 1} OR iy = {n - 1}
  UNION
  SELECT e.ix, e.iy
  FROM reach r
  JOIN (VALUES (1, 0), (-1, 0), (0, 1), (0, -1)) d(dx, dy) ON TRUE
  JOIN empty e ON e.ix = r.ix + d.dx AND e.iy = r.iy + d.dy
)
SELECT e.ix, e.iy,
       CAST(CASE WHEN r.ix IS NULL THEN 1 ELSE 0 END AS BIGINT) AS enclosed
FROM empty e
LEFT JOIN reach r ON r.ix = e.ix AND r.iy = e.iy
""")


# --------------------------------------------------------------------------
# activity_selection
# --------------------------------------------------------------------------


def q_activity_selection(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id"])

    def per_user(group: pa.Table) -> pa.Table:
        uid = int(group.column("user_id")[0].as_py())
        s = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        e = s + DUR_US * (1 + eid % 10)
        order = np.lexsort((s, e))  # earliest end first
        cur = -(1 << 62)
        cnt = 0
        for i in order:
            if s[i] >= cur:
                cnt += 1
                cur = int(e[i])
        return pa.table({
            "user_id": pa.array([uid], type=pa.int64()),
            "n_events": pa.array([len(s)], type=pa.int64()),
            "max_nonoverlap": pa.array([cnt], type=pa.int64()),
        })

    return group_map(ds, "user_id", per_user)


SQL_ACTIVITY_SELECTION = f"""
WITH RECURSIVE iv AS MATERIALIZED (
  SELECT user_id, epoch_us(ts) AS s,
         epoch_us(ts) + {DUR_US} * (1 + event_id % 10) AS e
  FROM events
), step AS (
  SELECT user_id, MIN(e) AS cur_end, 1 AS cnt
  FROM iv GROUP BY user_id
  UNION ALL
  SELECT st.user_id,
         (SELECT MIN(e) FROM iv
          WHERE iv.user_id = st.user_id AND iv.s >= st.cur_end),
         st.cnt + 1
  FROM step st
  WHERE EXISTS (SELECT 1 FROM iv
                WHERE iv.user_id = st.user_id AND iv.s >= st.cur_end)
)
SELECT st.user_id,
       CAST(c.n AS BIGINT) AS n_events,
       CAST(MAX(st.cnt) AS BIGINT) AS max_nonoverlap
FROM step st
JOIN (SELECT user_id, COUNT(*) AS n FROM iv GROUP BY 1) c
  ON c.user_id = st.user_id
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext159():
    return {
        "tile_enclosed_holes": q_tile_enclosed_holes,
        "activity_selection": q_activity_selection,
    }


def build_oracles_ext159():
    return {
        "tile_enclosed_holes": _sql_tile_enclosed_holes(),
        "activity_selection": SQL_ACTIVITY_SELECTION,
    }
