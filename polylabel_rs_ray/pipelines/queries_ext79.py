"""Round-3 extension operators, batch 79: KMV distinct sketch and
Hilbert-curve spatial indexing.

``kmv_distinct_sketch`` — the k-minimum-values distinct sketch with a
REAL oracle (the count-min discipline): user-day keys hash through
``md5_number_lower`` (low 8 digest bytes, little-endian — the DuckDB
builtin), masked to 63 bits; each block emits its k smallest hashes
(a constant-size mergeable partial) and the driver keeps the global k
minimum.  The k-th minimum — the sketch's defining statistic — is
SQL-replayable verbatim (ORDER BY hash LIMIT k), as is the exact
distinct count it estimates.

``hilbert_cells`` — the Hilbert space-filling curve as the clustering
index (the locality-preserving alternative to the existing z-order):
label points land on a 16x16 grid and the order-4 Hilbert d-index
computes with the classic rotate-and-fold bit algorithm, vectorized
in numpy and UNROLLED into four CASE stages in SQL — the curve
arithmetic itself is oracle-pinned, not just the counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
KMV_K = 16
MASK63 = (1 << 63) - 1

HILBERT_N = 16  # order-4 curve: 16 x 16 grid
HILBERT_CELL = 8.0


# --------------------------------------------------------------------------
# kmv_distinct_sketch
# --------------------------------------------------------------------------


def q_kmv_distinct_sketch(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def hashed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        h = np.fromiter(
            (int.from_bytes(
                hashlib.md5(f"{u}:{d}".encode()).digest()[8:], "little")
             & MASK63
             for u, d in zip(uid, day)),
            dtype=np.int64, count=len(uid))
        # constant-size partial: this block's k smallest distinct hashes
        h = np.unique(h)[:KMV_K]
        return pa.table({"h": pa.array(h, type=pa.int64())})

    cand = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    ).map_batches(hashed, batch_format="pyarrow",
                  zero_copy_batch=True).to_pandas()
    # driver merge: global k minimum over O(blocks * k) candidates
    merged = np.unique(cand["h"].to_numpy().astype(np.int64))[:KMV_K]
    kth = int(merged[-1])

    # exact distinct user-days for the audit column (engine-native)
    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        return pa.table({
            "ud": pa.array(uid * (1 << 20) + (day % (1 << 20)),
                           type=pa.int64()),
        })

    n_exact = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id", "ts"])
        .map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["ud"], [("count", None, "_n")],
    ).count()

    import pandas as pd

    return pd.DataFrame({
        "k": [np.int64(len(merged))],
        "kth_min_hash": [np.int64(kth)],
        "n_exact": [np.int64(n_exact)],
    })


SQL_KMV_DISTINCT_SKETCH = f"""
WITH ud AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) AS BIGINT) // {DAY_US} AS day
  FROM events
),
h AS (
  SELECT DISTINCT CAST(
    md5_number_lower(CAST(user_id AS VARCHAR) || ':' ||
                     CAST(day AS VARCHAR)) % {1 << 63} AS BIGINT) AS hv
  FROM ud
),
kmin AS (SELECT hv FROM h ORDER BY hv LIMIT {KMV_K})
SELECT CAST((SELECT COUNT(*) FROM kmin) AS BIGINT) AS k,
       CAST((SELECT MAX(hv) FROM kmin) AS BIGINT) AS kth_min_hash,
       CAST((SELECT COUNT(*) FROM ud) AS BIGINT) AS n_exact
"""


# --------------------------------------------------------------------------
# hilbert_cells
# --------------------------------------------------------------------------


def hilbert_xy2d(x: np.ndarray, y: np.ndarray, n: int = HILBERT_N):
    """Vectorized order-log2(n) Hilbert index (classic rotate-and-fold)."""
    x = x.astype(np.int64).copy()
    y = y.astype(np.int64).copy()
    d = np.zeros(len(x), dtype=np.int64)
    s = n // 2
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x_new = np.where(swap, y_f, x_f)
        y_new = np.where(swap, x_f, y_f)
        x, y = x_new, y_new
        s //= 2
    return d


def q_hilbert_cells(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled

    def stage(batch: pa.Table) -> pa.Table:
        lx = batch.column("label_x").to_numpy()
        ly = batch.column("label_y").to_numpy()
        cx = np.floor(lx / HILBERT_CELL).astype(np.int64) % HILBERT_N
        cy = np.floor(ly / HILBERT_CELL).astype(np.int64) % HILBERT_N
        return pa.table({
            "hilbert_d": pa.array(hilbert_xy2d(cx, cy), type=pa.int64()),
        })

    return grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(stage, batch_format="pyarrow",
                                            zero_copy_batch=True),
        ["hilbert_d"], [("count", None, "n_points")],
    )


def _sql_hilbert_cells() -> str:
    from .queries import _sql_dyadic_labels_cte

    # four unrolled rotate-and-fold stages (s = 8, 4, 2, 1)
    stages = []
    prev = "c0"
    for i, s in enumerate((8, 4, 2, 1)):
        cur = f"c{i + 1}"
        stages.append(f"""
        {cur} AS (
          SELECT d + {s * s} * (xor(3 * (CASE WHEN (x & {s}) > 0
                                             THEN 1 ELSE 0 END),
                                    (CASE WHEN (y & {s}) > 0
                                          THEN 1 ELSE 0 END))) AS d,
                 CASE WHEN (y & {s}) = 0 THEN
                   CASE WHEN (x & {s}) > 0 THEN {s} - 1 - y ELSE y END
                 ELSE x END AS x,
                 CASE WHEN (y & {s}) = 0 THEN
                   CASE WHEN (x & {s}) > 0 THEN {s} - 1 - x ELSE x END
                 ELSE y END AS y
          FROM {prev}
        )""")
        prev = cur
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        c0 AS (
          SELECT CAST(0 AS BIGINT) AS d,
                 CAST(FLOOR(label_x / {HILBERT_CELL!r}) AS BIGINT)
                   % {HILBERT_N} AS x,
                 CAST(FLOOR(label_y / {HILBERT_CELL!r}) AS BIGINT)
                   % {HILBERT_N} AS y
          FROM labels
        ),{','.join(stages)}
        SELECT CAST(d AS BIGINT) AS hilbert_d,
               CAST(COUNT(*) AS BIGINT) AS n_points
        FROM {prev} GROUP BY d
    """


def build_queries_ext79() -> dict:
    return {
        "kmv_distinct_sketch": q_kmv_distinct_sketch,
        "hilbert_cells": q_hilbert_cells,
    }


def build_oracles_ext79() -> dict:
    return {
        "kmv_distinct_sketch": SQL_KMV_DISTINCT_SKETCH,
        "hilbert_cells": _sql_hilbert_cells(),
    }
