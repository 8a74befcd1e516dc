"""Round-3 extension operators, batch 177: lattice Euler characteristic
+ longest bitonic subsequence per user.

``lattice_euler_char`` — the topological invariant of the occupied
res-6 lattice viewed as a cubical complex (each occupied cell a
closed unit square): F = cells, E = distinct unit edges, V =
distinct corners, and χ = V − E + F.  For such complexes χ equals
#4-connected components − #enclosed holes, which ties THREE
independent operators together: the pytest twin recomputes both
counts by BFS (and the ext159 hole detector at the same resolution
agrees) — topology as a cross-operator consistency oracle.  Engine:
three padded-shift boolean grids (corner present iff any incident
cell occupied; edge present iff either flanking cell occupied),
summed.  Oracle: UNION-DISTINCT corner/edge enumerations counted.

``user_bitonic_len`` — the longest strictly-increasing-then-strictly-
decreasing subsequence per user (rise-and-fall, degenerate pure
rises/falls allowed): max over positions of lis_end(p) +
lds_start(p) − 1.  Engine: the patience-sorting machinery run in
both directions per user (bisect on cents, reversed for the falling
side), all inside the per-user co-partition.  Oracle: two LIS-style
chain-closure recursive CTEs (ascending chains ending at p,
descending chains starting at p — the ext160 shape, joined at the
peak) — no patience structure.

Reference anchors: raster-topology + sequence families (SURVEY.md
§2.3/§2.4); siblings: tile_components / tile_enclosed_holes (the
counts χ must reconcile), picks_theorem_audit (discrete-geometry
invariants), lis_per_user (patience + chain-closure oracle).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

EULER_RES = 6


# --------------------------------------------------------------------------
# lattice_euler_char
# --------------------------------------------------------------------------


def q_lattice_euler_char(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, EULER_RES)
    n = lat.shape[0]
    occ = lat > 0
    pad = np.zeros((n + 2, n + 2), dtype=bool)
    pad[1:-1, 1:-1] = occ
    F = int(occ.sum())
    # vertices on the (n+1)^2 corner grid: corner (xx, yy) present iff
    # any of the 4 incident cells is occupied
    vert = (pad[1:, 1:] | pad[:-1, 1:] | pad[1:, :-1] | pad[:-1, :-1])
    V = int(vert[:n + 1, :n + 1].sum())
    # horizontal edges (x, yy): cell above or below the edge occupied
    hedge = pad[1:-1, 1:] | pad[1:-1, :-1]
    E_h = int(hedge[:, :n + 1].sum())
    # vertical edges (xx, y): cell right or left of the edge occupied
    vedge = pad[1:, 1:-1] | pad[:-1, 1:-1]
    E_v = int(vedge[:n + 1, :].sum())
    E = E_h + E_v
    return ray.data.from_arrow(pa.table({
        "n_cells": pa.array([F], type=pa.int64()),
        "n_edges": pa.array([E], type=pa.int64()),
        "n_vertices": pa.array([V], type=pa.int64()),
        "euler": pa.array([V - E + F], type=pa.int64()),
    }))


def _sql_lattice_euler_char() -> str:
    from .queries_ext156 import _sql_grid_cte

    return _sql_grid_cte(EULER_RES) + """
, verts AS (
  SELECT DISTINCT ix + dx.range AS vx, iy + dy.range AS vy
  FROM occ, range(0, 2) dx, range(0, 2) dy
), hedges AS (
  SELECT DISTINCT ix AS ex, iy + dy.range AS ey
  FROM occ, range(0, 2) dy
), vedges AS (
  SELECT DISTINCT ix + dx.range AS ex, iy AS ey
  FROM occ, range(0, 2) dx
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM occ) AS n_cells,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM hedges)
         + (SELECT CAST(COUNT(*) AS BIGINT) FROM vedges) AS n_edges,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM verts) AS n_vertices,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM verts)
         - ((SELECT CAST(COUNT(*) AS BIGINT) FROM hedges)
            + (SELECT CAST(COUNT(*) AS BIGINT) FROM vedges))
         + (SELECT CAST(COUNT(*) AS BIGINT) FROM occ) AS euler
"""


# --------------------------------------------------------------------------
# user_bitonic_len
# --------------------------------------------------------------------------


def q_user_bitonic_len(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"])

    def per_user(group: pa.Table) -> pa.Table:
        uid = int(group.column("user_id")[0].as_py())
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        v = np.round(group.column("value").to_numpy() * 100.0).astype(
            np.int64)
        order = np.lexsort((eid, ts))
        v = v[order]
        m = len(v)

        def lis_ends(vals) -> np.ndarray:
            tails: list[int] = []
            out = np.empty(len(vals), dtype=np.int64)
            for i, x in enumerate(vals):
                p = bisect_left(tails, int(x))
                if p == len(tails):
                    tails.append(int(x))
                else:
                    tails[p] = int(x)
                out[i] = p + 1
            return out

        rise = lis_ends(v)                  # strict LIS ending at i
        # strict LDS starting at i == strict LIS ending at the mirrored
        # position of the REVERSED sequence (reversal alone flips the
        # direction; negating too would flip the comparison back)
        fall = lis_ends(v[::-1])[::-1]
        bitonic = int((rise + fall - 1).max()) if m else 0
        return pa.table({
            "user_id": pa.array([uid], type=pa.int64()),
            "n_events": pa.array([m], type=pa.int64()),
            "bitonic_len": pa.array([bitonic], type=pa.int64()),
        })

    return group_map(ds, "user_id", per_user)


SQL_USER_BITONIC_LEN = """
WITH RECURSIVE iv AS MATERIALIZED (
  SELECT user_id,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS pos,
         CAST(ROUND(value * 100) AS BIGINT) AS v
  FROM events
), up AS (
  SELECT user_id, pos, v, 1 AS l FROM iv
  UNION
  SELECT j.user_id, j.pos, j.v, c.l + 1
  FROM up c JOIN iv j ON j.user_id = c.user_id
                     AND j.pos > c.pos AND j.v > c.v
), dn AS (
  SELECT user_id, pos, v, 1 AS l FROM iv
  UNION
  SELECT j.user_id, j.pos, j.v, c.l + 1
  FROM dn c JOIN iv j ON j.user_id = c.user_id
                     AND j.pos < c.pos AND j.v > c.v
), rise AS (
  SELECT user_id, pos, MAX(l) AS r FROM up GROUP BY 1, 2
), fall AS (
  SELECT user_id, pos, MAX(l) AS f FROM dn GROUP BY 1, 2
)
SELECT r.user_id,
       CAST(n.n AS BIGINT) AS n_events,
       CAST(MAX(r.r + f.f - 1) AS BIGINT) AS bitonic_len
FROM rise r
JOIN fall f ON f.user_id = r.user_id AND f.pos = r.pos
JOIN (SELECT user_id, COUNT(*) AS n FROM iv GROUP BY 1) n
  ON n.user_id = r.user_id
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext177():
    return {
        "lattice_euler_char": q_lattice_euler_char,
        "user_bitonic_len": q_user_bitonic_len,
    }


def build_oracles_ext177():
    return {
        "lattice_euler_char": _sql_lattice_euler_char(),
        "user_bitonic_len": SQL_USER_BITONIC_LEN,
    }
