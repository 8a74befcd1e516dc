"""Round-3 extension operators, batch 139: trailing rolling max +
tile histogram equalization.

``hourly_rolling_max`` — the sliding-window MAX shape (the monotone-
deque classic, here over the bounded hourly lattice): per event type
and observed hour, the max hourly count over the trailing 6 OBSERVED
rows (ROWS 5 PRECEDING — row-based framing, engine-neutral by
construction).  Bounded types×720 histogram via the map-side combine;
the window fold is one vectorized driver sliding-max over ≤720
elements per type.  Oracle: MAX() OVER (ROWS 5 PRECEDING).

``tile_equalize`` — raster histogram EQUALIZATION over the label tile
counts: with the bounded per-tile point counts from the render
lattice, each tile's equalized level is the classic integer CDF remap

    eq_level = (cum_before · L) // total      (L = 16 levels)

where ``cum_before`` counts points in tiles strictly before this tile
in (count, tile_id) order — fully deterministic, exact int64, and the
standard contrast-stretch a tile renderer applies before colorizing.
Reuses the label→cell-encode pipeline (stateless encode tasks) +
bounded tile histogram; the CDF fold is O(tiles) on the driver.
Oracle: the same window arithmetic over the tile-count CTE.

Reference anchors: window + raster families (SURVEY.md §2.3/2.4);
siblings: rolling_user_stats (ROWS frames), tile_counts /
tile_heat_smooth (bounded tile rasters), hourly_peak_counts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .queries_ext120 import HOUR_US, _bucket_counts

ROLL_WINDOW = 6
EQ_LEVELS = 16


# --------------------------------------------------------------------------
# hourly_rolling_max
# --------------------------------------------------------------------------


def q_hourly_rolling_max(sf_dir: str):
    import ray
    hist = _bucket_counts(sf_dir, HOUR_US, "hour")

    et_out, h_out, n_out, m_out = [], [], [], []
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("hour")
        h = g["hour"].to_numpy().astype(np.int64)
        c = g["n"].to_numpy().astype(np.int64)
        # vectorized trailing-6 max over the bounded series
        stack = np.full((ROLL_WINDOW, len(c)), np.iinfo(np.int64).min)
        for k in range(ROLL_WINDOW):
            if k == 0:
                stack[0] = c
            else:
                stack[k, k:] = c[:-k]
        m = stack.max(axis=0)
        et_out.extend([et] * len(c))
        h_out.extend(h.tolist())
        n_out.extend(c.tolist())
        m_out.extend(m.astype(np.int64).tolist())
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(et_out, type=pa.string()),
        "hour": pa.array(h_out, type=pa.int64()),
        "n": pa.array(n_out, type=pa.int64()),
        "rolling_max": pa.array(m_out, type=pa.int64()),
    }))


SQL_HOURLY_ROLLING_MAX = f"""
WITH hourly AS (
  SELECT event_type, epoch_us(ts) // {HOUR_US} AS hour,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
)
SELECT event_type, hour, n,
       CAST(MAX(n) OVER (PARTITION BY event_type ORDER BY hour
                         ROWS {ROLL_WINDOW - 1} PRECEDING) AS BIGINT)
           AS rolling_max
FROM hourly
"""


# --------------------------------------------------------------------------
# tile_equalize
# --------------------------------------------------------------------------


def q_tile_equalize(sf_dir: str):
    from .queries import q_tile_counts

    import ray
    tc = q_tile_counts(sf_dir).to_pandas()  # bounded: 32x32 tile lattice
    tc = tc.sort_values(["n_points", "tile_id"]).reset_index(drop=True)
    n = tc["n_points"].to_numpy().astype(np.int64)
    total = int(n.sum())
    cum_before = np.cumsum(n) - n
    level = (cum_before * EQ_LEVELS) // total
    return ray.data.from_arrow(pa.table({
        "tile_id": pa.array(tc["tile_id"].to_numpy().astype(np.int64),
                            type=pa.int64()),
        "n_points": pa.array(n, type=pa.int64()),
        "eq_level": pa.array(level.astype(np.int64), type=pa.int64()),
    }))


def _sql_tile_equalize() -> str:
    from .queries import _sql_tile_counts

    return f"""
        WITH tc AS ({_sql_tile_counts()}),
        cdf AS (
          SELECT tile_id, n_points,
                 SUM(n_points) OVER (ORDER BY n_points, tile_id
                                     ROWS UNBOUNDED PRECEDING)
                   - n_points AS cum_before,
                 SUM(n_points) OVER () AS total
          FROM tc
        )
        SELECT tile_id, n_points,
               CAST((cum_before * {EQ_LEVELS}) // total AS BIGINT)
                   AS eq_level
        FROM cdf
    """


def build_queries_ext139() -> dict:
    return {
        "hourly_rolling_max": q_hourly_rolling_max,
        "tile_equalize": q_tile_equalize,
    }


def build_oracles_ext139() -> dict:
    return {
        "hourly_rolling_max": SQL_HOURLY_ROLLING_MAX,
        "tile_equalize": _sql_tile_equalize(),
    }
