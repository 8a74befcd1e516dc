"""Round-3 extension operators, batch 70: containment join via domain
compression and raster peak detection.

``typeset_containment_pairs`` — the set-containment join: which
user-day behavior profiles are strict subsets of which others?  The
event-type domain is bounded, so every user-day's type set compresses
to a BITMASK; distinct masks form a tiny histogram, and the quadratic
containment test runs over distinct masks (not user-days), with pair
multiplicities recovered as ``n_a * n_b``.  The pattern that turns an
O(N²) set join into O(distinct²) whenever the element domain is small.
Mask bit indices are data-driven (alphabetical type order) in both the
engine and the SQL (ROW_NUMBER over the distinct types).

``tile_local_maxima`` — peak detection on the label-point raster:
square grid cells (side 32), a cell is a peak iff its point count
strictly exceeds all 8 neighbors (absent neighbor = 0).  The cell
histogram is bounded, so the neighborhood test folds driver-side over
a dict; the SQL oracle is the NOT EXISTS neighbor self-join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
TILE_SIDE = 32.0


def q_typeset_containment_pairs(sf_dir: str):
    from .agg import distinct_values, grouped_aggregate

    import ray

    # bounded type domain, alphabetical bit order (mirrored in SQL) —
    # discovered by the distributed distinct, never a driver column scan
    types = distinct_values(f"{sf_dir}/events.parquet", "event_type")
    bit_of = {t: i for i, t in enumerate(types)}

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        bits = np.array([1 << bit_of[t] for t in
                         batch.column("event_type").to_pylist()],
                        dtype=np.int64)
        return pa.table({
            # pack (user, day) into one int key: day fits far below 2^20
            "ud": pa.array(uid * (1 << 20) + (day % (1 << 20)),
                           type=pa.int64()),
            "mask": pa.array(bits, type=pa.int64()),
        })

    # OR-fold via sum-of-distinct-bits: dedup (ud, single-bit mask) rows,
    # then SUM per ud == bitwise OR exactly (each bit appears once)
    dedup = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id", "ts", "event_type"])
        .map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["ud", "mask"],
        [("count", None, "_n")],
    )
    per_ud = grouped_aggregate(
        dedup.select_columns(["ud", "mask"]),
        ["ud"],
        [("sum", "mask", "mask")],  # distinct single-bit rows -> OR == sum
    )

    hist = grouped_aggregate(
        per_ud.select_columns(["mask"]),
        ["mask"],
        [("count", None, "n")],
    ).to_pandas()  # bounded: <= 2^|types| - 1 rows

    import pandas as pd

    masks = hist["mask"].to_numpy().astype(np.int64)
    counts = hist["n"].to_numpy().astype(np.int64)
    rows = []
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a != b and (a & b) == a:  # strict subset
                rows.append({
                    "mask_a": int(a), "mask_b": int(b),
                    "n_pairs": int(counts[i]) * int(counts[j]),
                })
    out = pd.DataFrame(rows, columns=["mask_a", "mask_b", "n_pairs"])
    out = out.sort_values(["mask_a", "mask_b"]).reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SQL_TYPESET_CONTAINMENT_PAIRS = f"""
WITH idx AS (
  SELECT event_type,
         ROW_NUMBER() OVER (ORDER BY event_type) - 1 AS bit
  FROM (SELECT DISTINCT event_type FROM events)
),
ud AS (
  SELECT e.user_id,
         CAST(epoch_us(e.ts) AS BIGINT) // {DAY_US} AS day,
         CAST(SUM(DISTINCT (1 << i.bit)) AS BIGINT) AS mask
  FROM events e JOIN idx i ON e.event_type = i.event_type
  GROUP BY e.user_id, day
),
hist AS (
  SELECT mask, CAST(COUNT(*) AS BIGINT) AS n FROM ud GROUP BY mask
)
SELECT a.mask AS mask_a, b.mask AS mask_b,
       CAST(a.n * b.n AS BIGINT) AS n_pairs
FROM hist a JOIN hist b
  ON a.mask <> b.mask AND (a.mask & b.mask) = a.mask
"""


def q_tile_local_maxima(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled

    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        return pa.table({
            "cx": pa.array(np.floor(x / TILE_SIDE).astype(np.int64),
                           type=pa.int64()),
            "cy": pa.array(np.floor(y / TILE_SIDE).astype(np.int64),
                           type=pa.int64()),
        })

    hist = grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(cells, batch_format="pyarrow",
                                            zero_copy_batch=True),
        ["cx", "cy"],
        [("count", None, "n")],
    ).to_pandas()  # bounded: occupied grid cells

    import pandas as pd

    n_of = {(int(r.cx), int(r.cy)): int(r.n) for r in hist.itertuples()}
    rows = []
    for (cx, cy), n in n_of.items():
        peak = all(
            n > n_of.get((cx + dx, cy + dy), 0)
            for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)
        )
        if peak:
            rows.append({"cx": cx, "cy": cy, "n_points": n})
    out = pd.DataFrame(rows, columns=["cx", "cy", "n_points"])
    out = out.sort_values(["cx", "cy"]).reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _sql_tile_local_maxima() -> str:
    from .queries import _sql_dyadic_labels_cte

    s = f"{TILE_SIDE!r}"
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        cellpts AS (
          SELECT CAST(FLOOR(label_x / {s}) AS BIGINT) AS cx,
                 CAST(FLOOR(label_y / {s}) AS BIGINT) AS cy
          FROM labels
        ),
        c AS (
          SELECT cx, cy, CAST(COUNT(*) AS BIGINT) AS n_points
          FROM cellpts GROUP BY cx, cy
        )
        SELECT cx, cy, n_points FROM c
        WHERE NOT EXISTS (
          SELECT 1 FROM c nb
          WHERE ABS(nb.cx - c.cx) <= 1 AND ABS(nb.cy - c.cy) <= 1
            AND NOT (nb.cx = c.cx AND nb.cy = c.cy)
            AND nb.n_points >= c.n_points
        )
    """


def build_queries_ext70() -> dict:
    return {
        "typeset_containment_pairs": q_typeset_containment_pairs,
        "tile_local_maxima": q_tile_local_maxima,
    }


def build_oracles_ext70() -> dict:
    return {
        "typeset_containment_pairs": SQL_TYPESET_CONTAINMENT_PAIRS,
        "tile_local_maxima": _sql_tile_local_maxima(),
    }
