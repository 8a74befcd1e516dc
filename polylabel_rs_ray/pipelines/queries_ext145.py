"""Round-3 extension operators, batch 145: 2-D Haar raster energy +
first-vs-modal type matrix.

``tile_haar_energy`` — the 2-D multi-resolution energy spectrum of
the label tile raster (the spatial counterpart of
haar_hourly_energy): the 32×32 per-tile label counts run through 5
levels of the unnormalized 2-D Haar transform; per level the exact
int64 energies of the horizontal, vertical and diagonal detail bands
(with the block convention a=(0,0) b=(1,0) c=(0,1) d=(1,1):
h = a+c−b−d, v = a+b−c−d, g = a+d−b−c — spelled out so both engines
fold identically).  Sparse lattice rows group by (ix//2, iy//2) with
parity-signed sums — absent tiles are exact zeros, so no dense
materialization is needed SQL-side; the engine folds the bounded
dense 32×32 lattice.  Oracle: 5 chained halving CTEs.

``first_vs_modal_matrix`` — the 5×5 behavioral matrix (entry type vs
habitual type): per user the FIRST event type (by (ts, event_id))
and the MODAL type (count desc, type asc — the mode_event_type
contract), counted per (first, modal) cell.  Per-user co-partitioned
map_groups (ordered-within-key), bounded 25-cell combine.  Oracle:
FIRST(... ORDER BY) + QUALIFY mode join.

Reference anchors: raster + behavioral families (SURVEY.md §2.3/2.4);
siblings: haar_hourly_energy (1-D spectrum), tile_heat_smooth /
tile_equalize (bounded tile rasters), mode_event_type,
session_bounce_rate (entry-type machinery).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

HAAR_LEVELS = 5


# --------------------------------------------------------------------------
# tile_haar_energy
# --------------------------------------------------------------------------


def q_tile_haar_energy(sf_dir: str):
    from ..config import DEFAULT_TILE_RES
    from ..stages.cells import decode_cells
    from .queries import q_tile_counts

    import ray
    tc = q_tile_counts(sf_dir).to_pandas()  # bounded 32x32
    n = 1 << DEFAULT_TILE_RES
    lat = np.zeros((n, n), dtype=np.int64)
    ix, iy, _res = decode_cells(tc["tile_id"].to_numpy().astype(np.int64))
    lat[ix, iy] = tc["n_points"].to_numpy().astype(np.int64)

    levels, eh, ev, eg = [], [], [], []
    cur = lat
    for level in range(1, HAAR_LEVELS + 1):
        a = cur[0::2, 0::2]
        b = cur[1::2, 0::2]
        c = cur[0::2, 1::2]
        d = cur[1::2, 1::2]
        h = a + c - b - d
        v = a + b - c - d
        g = a + d - b - c
        levels.append(level)
        eh.append(int((h * h).sum()))
        ev.append(int((v * v).sum()))
        eg.append(int((g * g).sum()))
        cur = a + b + c + d
    return ray.data.from_arrow(pa.table({
        "level": pa.array(levels, type=pa.int64()),
        "energy_h": pa.array(eh, type=pa.int64()),
        "energy_v": pa.array(ev, type=pa.int64()),
        "energy_g": pa.array(eg, type=pa.int64()),
    }))


def _sql_tile_haar_energy() -> str:
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
    from .queries import _sql_dyadic_labels_cte

    n = 1 << DEFAULT_TILE_RES
    cell = WORLD_SIZE / n
    gx = (f"LEAST({n - 1}, GREATEST(0, CAST(FLOOR((label_x - "
          f"({WORLD_MIN!r})) / {cell!r}) AS BIGINT)))")
    gy = (f"LEAST({n - 1}, GREATEST(0, CAST(FLOOR((label_y - "
          f"({WORLD_MIN!r})) / {cell!r}) AS BIGINT)))")
    parts = [f"""
        lat0 AS (
          SELECT {gx} AS ix, {gy} AS iy, CAST(COUNT(*) AS BIGINT) AS c
          FROM labels GROUP BY 1, 2
        )"""]
    sel = []
    for k in range(1, HAAR_LEVELS + 1):
        prev = f"lat{k - 1}"
        parts.append(f"""
        det{k} AS (
          SELECT ix // 2 AS ix, iy // 2 AS iy,
                 SUM(c * (1 - 2 * (ix % 2))) AS h,
                 SUM(c * (1 - 2 * (iy % 2))) AS v,
                 SUM(c * (1 - 2 * (ix % 2)) * (1 - 2 * (iy % 2))) AS g,
                 SUM(c) AS c
          FROM {prev} GROUP BY 1, 2
        )""")
        parts.append(f"""
        lat{k} AS (SELECT ix, iy, c FROM det{k})""")
        sel.append(f"""
        SELECT CAST({k} AS BIGINT) AS level,
               CAST(COALESCE(SUM(h * h), 0) AS BIGINT) AS energy_h,
               CAST(COALESCE(SUM(v * v), 0) AS BIGINT) AS energy_v,
               CAST(COALESCE(SUM(g * g), 0) AS BIGINT) AS energy_g
        FROM det{k}""")
    return (f"WITH labels AS ({_sql_dyadic_labels_cte()}), "
            + ",".join(parts) + " " + " UNION ALL ".join(sel))


# --------------------------------------------------------------------------
# first_vs_modal_matrix
# --------------------------------------------------------------------------


def q_first_vs_modal_matrix(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])

    def per_user(group: pa.Table) -> pa.Table:
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, ts))
        first = et[order[0]]
        vals, counts = np.unique(et, return_counts=True)
        # mode: count desc, type asc
        best = np.lexsort((vals, -counts))[0]
        return pa.table({
            "first_type": pa.array([first], type=pa.string()),
            "mode_type": pa.array([str(vals[best])], type=pa.string()),
            "one": pa.array([1], type=pa.int64()),
        })

    per = group_map(ds, "user_id", lambda g: per_user(g.drop_columns(["user_id"])))
    return grouped_aggregate(
        per, ["first_type", "mode_type"], [("sum", "one", "n_users")],
    )


SQL_FIRST_VS_MODAL_MATRIX = """
WITH f AS (
  SELECT user_id, FIRST(event_type ORDER BY ts, event_id) AS first_type
  FROM events GROUP BY user_id
), c AS (
  SELECT user_id, event_type, COUNT(*) AS n FROM events GROUP BY 1, 2
), m AS (
  SELECT user_id, event_type AS mode_type FROM c
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY n DESC, event_type ASC) = 1
)
SELECT f.first_type, m.mode_type, CAST(COUNT(*) AS BIGINT) AS n_users
FROM f JOIN m ON m.user_id = f.user_id
GROUP BY 1, 2
"""


def build_queries_ext145() -> dict:
    return {
        "tile_haar_energy": q_tile_haar_energy,
        "first_vs_modal_matrix": q_first_vs_modal_matrix,
    }


def build_oracles_ext145() -> dict:
    return {
        "tile_haar_energy": _sql_tile_haar_energy(),
        "first_vs_modal_matrix": SQL_FIRST_VS_MODAL_MATRIX,
    }
