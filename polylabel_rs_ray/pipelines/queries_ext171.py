"""Round-3 extension operators, batch 171: morphological opening/closing
audit + per-user turning-point counts.

``tile_morph_open_close`` — the salt-and-pepper filters of raster
morphology with the 4-connected plus structuring element: per lattice
cell of the res-5 render grid, whether it survives OPENING (erosion
then dilation — removes isolated specks) and whether CLOSING fills it
(dilation then erosion — plugs one-cell pits).  Emitted for every
cell: ``occ`` (input), ``opened``, ``closed`` as 0/1 — the full
truth table, so the oracle pins both idempotence inputs and the
open ⊆ occ ⊆ close sandwich cell by cell.  Engine: the occupied set
comes from the distributed tile shuffle; both operators are two
masked-shift passes on the bounded lattice (out-of-bounds counts as
empty for erosion — the standard border rule, replicated in SQL with
explicit bounds predicates).  The oracle quantifies neighborhoods
directly (erode = occupied AND all in-bounds 4-neighbors occupied;
dilate = occupied OR any 4-neighbor occupied) — no shift machinery.

``user_turning_points`` — the turning-point randomness screen per
user: counts of STRICT local peaks (prev < v > next) and troughs
(prev > v < next) over the (ts, event_id)-ordered value sequence in
exact cents (plateau members are neither, by the strict-inequality
policy — stated, not incidental).  One vectorized pass per hash
partition with the guarded_sequence_match segment machinery (shifted
compares + reduceat folds, per-user resets free because segment
boundaries mask out).  Oracle: per-user LAG/LEAD window compares.

Reference anchors: raster/tile + sequence-statistics families
(SURVEY.md §2.3/§2.4); siblings: tile_components / tile_enclosed_
holes (lattice morphology), runs_test_daily (randomness screens),
guarded_sequence_match (segment reduceat machinery).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

MORPH_RES = 5


# --------------------------------------------------------------------------
# tile_morph_open_close
# --------------------------------------------------------------------------


def _erode(m: np.ndarray) -> np.ndarray:
    """4-connected erosion; out-of-bounds counts as EMPTY."""
    out = m.copy()
    out[1:, :] &= m[:-1, :]
    out[:1, :] = False
    out[:-1, :] &= m[1:, :]
    out[-1:, :] = False
    out2 = out
    out2[:, 1:] &= m[:, :-1]
    out2[:, :1] = False
    out2[:, :-1] &= m[:, 1:]
    out2[:, -1:] = False
    return out2


def _dilate(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out[1:, :] |= m[:-1, :]
    out[:-1, :] |= m[1:, :]
    out[:, 1:] |= m[:, :-1]
    out[:, :-1] |= m[:, 1:]
    return out


def q_tile_morph_open_close(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, MORPH_RES)
    occ = lat > 0
    opened = _dilate(_erode(occ))
    closed = _erode(_dilate(occ))
    n = lat.shape[0]
    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(gx.ravel().astype(np.int64)),
        "iy": pa.array(gy.ravel().astype(np.int64)),
        "occ": pa.array(occ.ravel().astype(np.int64)),
        "opened": pa.array(opened.ravel().astype(np.int64)),
        "closed": pa.array(closed.ravel().astype(np.int64)),
    }))


def _sql_tile_morph_open_close() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << MORPH_RES
    # erosion border rule: a cell at the lattice edge is never eroded-in
    # (its out-of-bounds neighbor counts as empty)
    return _sql_grid_cte(MORPH_RES) + f"""
, o AS MATERIALIZED (
  SELECT g.ix, g.iy,
         CASE WHEN EXISTS (SELECT 1 FROM occ c
                           WHERE c.ix = g.ix AND c.iy = g.iy)
              THEN 1 ELSE 0 END AS v
  FROM grid g
), er AS MATERIALIZED (
  SELECT a.ix, a.iy,
         CASE WHEN a.v = 1
               AND a.ix > 0 AND a.ix < {n - 1}
               AND a.iy > 0 AND a.iy < {n - 1}
               AND (SELECT v FROM o b WHERE b.ix = a.ix - 1
                    AND b.iy = a.iy) = 1
               AND (SELECT v FROM o b WHERE b.ix = a.ix + 1
                    AND b.iy = a.iy) = 1
               AND (SELECT v FROM o b WHERE b.ix = a.ix
                    AND b.iy = a.iy - 1) = 1
               AND (SELECT v FROM o b WHERE b.ix = a.ix
                    AND b.iy = a.iy + 1) = 1
              THEN 1 ELSE 0 END AS v
  FROM o a
), di AS MATERIALIZED (
  SELECT a.ix, a.iy,
         CASE WHEN a.v = 1 OR EXISTS (
                SELECT 1 FROM o b
                WHERE abs(b.ix - a.ix) + abs(b.iy - a.iy) = 1
                  AND b.v = 1)
              THEN 1 ELSE 0 END AS v
  FROM o a
)
SELECT a.ix, a.iy,
       CAST(a.v AS BIGINT) AS occ,
       CAST(CASE WHEN e.v = 1 OR EXISTS (
              SELECT 1 FROM er e2
              WHERE abs(e2.ix - a.ix) + abs(e2.iy - a.iy) = 1
                AND e2.v = 1)
            THEN 1 ELSE 0 END AS BIGINT) AS opened,
       CAST(CASE WHEN d.v = 1
                  AND a.ix > 0 AND a.ix < {n - 1}
                  AND a.iy > 0 AND a.iy < {n - 1}
                  AND (SELECT v FROM di b WHERE b.ix = a.ix - 1
                       AND b.iy = a.iy) = 1
                  AND (SELECT v FROM di b WHERE b.ix = a.ix + 1
                       AND b.iy = a.iy) = 1
                  AND (SELECT v FROM di b WHERE b.ix = a.ix
                       AND b.iy = a.iy - 1) = 1
                  AND (SELECT v FROM di b WHERE b.ix = a.ix
                       AND b.iy = a.iy + 1) = 1
            THEN 1 ELSE 0 END AS BIGINT) AS closed
FROM o a
JOIN er e ON e.ix = a.ix AND e.iy = a.iy
JOIN di d ON d.ix = a.ix AND d.iy = a.iy
"""


# --------------------------------------------------------------------------
# user_turning_points
# --------------------------------------------------------------------------


def q_user_turning_points(sf_dir: str, n_parts: int | None = None):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )

    def per_part(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        v = np.round(group.column("value").to_numpy() * 100.0).astype(
            np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, v = uid[order], v[order]
        n = len(uid)
        seg_mask = np.empty(n, dtype=bool)
        seg_mask[0] = True
        np.not_equal(uid[1:], uid[:-1], out=seg_mask[1:])
        seg_start_idx = np.flatnonzero(seg_mask)
        seg_len = np.diff(np.append(seg_start_idx, n)).astype(np.int64)
        # interior positions: previous and next row belong to same user
        interior = np.zeros(n, dtype=bool)
        interior[1:-1] = ~seg_mask[1:-1] & ~seg_mask[2:]
        prev = np.empty(n, dtype=np.int64)
        nxt = np.empty(n, dtype=np.int64)
        prev[1:] = v[:-1]
        prev[0] = 0
        nxt[:-1] = v[1:]
        nxt[-1] = 0
        peak = interior & (prev < v) & (v > nxt)
        trough = interior & (prev > v) & (v < nxt)
        return pa.table({
            "user_id": pa.array(uid[seg_start_idx], type=pa.int64()),
            "n_events": pa.array(seg_len, type=pa.int64()),
            "n_peaks": pa.array(
                np.add.reduceat(peak.astype(np.int64), seg_start_idx),
                type=pa.int64()),
            "n_troughs": pa.array(
                np.add.reduceat(trough.astype(np.int64), seg_start_idx),
                type=pa.int64()),
        })

    return hash_exchange(ds, "user_id", per_part, n_parts)


SQL_USER_TURNING_POINTS = """
WITH seq AS MATERIALIZED (
  SELECT user_id,
         CAST(ROUND(value * 100) AS BIGINT) AS v,
         LAG(CAST(ROUND(value * 100) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pv,
         LEAD(CAST(ROUND(value * 100) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nv
  FROM events
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN pv IS NOT NULL AND nv IS NOT NULL
                      AND pv < v AND v > nv THEN 1 ELSE 0 END) AS BIGINT)
         AS n_peaks,
       CAST(SUM(CASE WHEN pv IS NOT NULL AND nv IS NOT NULL
                      AND pv > v AND v < nv THEN 1 ELSE 0 END) AS BIGINT)
         AS n_troughs
FROM seq GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext171():
    return {
        "tile_morph_open_close": q_tile_morph_open_close,
        "user_turning_points": q_user_turning_points,
    }


def build_oracles_ext171():
    return {
        "tile_morph_open_close": _sql_tile_morph_open_close(),
        "user_turning_points": SQL_USER_TURNING_POINTS,
    }
