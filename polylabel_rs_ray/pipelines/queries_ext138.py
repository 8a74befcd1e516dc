"""Round-3 extension operators, batch 138: user lifetime-activity
matrix + weekend-share histogram.

``lifetime_activity_matrix`` — the cohort-shaped 2-D histogram "how
long do users stay vs how much do they do": per user the lifetime in
whole days (``last_day − first_day`` on the day lattice) and the
event count, bucketed by fixed CASE ladders (lifetime: 0 / 1–7 /
8–14 / 15–21 / 22+ days; activity: 1 / 2–4 / 5–9 / 10–19 / 20+
events), emitted as the full 5×5 matrix including zero cells (shape
stability across scale factors).  One user-key hash aggregate
(min/max/count partials through the map-side combine) then an O(25)
driver fold.  Oracle: the same ladders in SQL over a per-user rollup.

``weekend_share_histogram`` — per-user weekend behavior shift: the
integer decile bucket ``(10·weekend_events) // total_events`` (0–10)
histogrammed over all users.  Weekend = Saturday/Sunday via the
epoch-day mod-7 identity (day 0 = Thursday, so dow ∈ {2, 3} —
spelled out so both engines replay the same calendar arithmetic).
Same one-exchange shape.  Oracle: DuckDB ``dayofweek`` mapped to the
identical set.

Reference anchors: cohort/behavioral families (SURVEY.md §2.4);
siblings: cohort_retention, user_rfm_segments (behavioral bucket
ladders), events_by_dow (calendar arithmetic), value_histogram.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000

LIFETIME_EDGES = (0, 7, 14, 21)   # bucket = #edges strictly below lifetime
ACTIVITY_EDGES = (1, 4, 9, 19)    # bucket = #edges strictly below count


def _user_rollup(sf_dir: str):
    """Per-user (first_day, last_day, n_events, n_weekend) via one
    user-key hash aggregate."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def stage(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        dow = day % 7  # epoch day 0 = Thursday; Sat=2, Sun=3
        wk = ((dow == 2) | (dow == 3)).astype(np.int64)
        return pa.table({
            "k": pa.array(uid, type=pa.int64()),
            "first_day": pa.array(day, type=pa.int64()),
            "last_day": pa.array(day, type=pa.int64()),
            "one": pa.array(np.ones(len(uid), dtype=np.int64)),
            "wk": pa.array(wk, type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["k"],
        [("min", "first_day", "first_day"), ("max", "last_day", "last_day"),
         ("sum", "one", "n_events"), ("sum", "wk", "n_weekend")],
    ).to_pandas()  # bounded: one row per user


def _bucket(v: np.ndarray, edges: tuple) -> np.ndarray:
    b = np.zeros(len(v), dtype=np.int64)
    for e in edges:
        b += (v > e).astype(np.int64)
    return b


# --------------------------------------------------------------------------
# lifetime_activity_matrix
# --------------------------------------------------------------------------


def q_lifetime_activity_matrix(sf_dir: str):
    import ray
    u = _user_rollup(sf_dir)
    life = (u["last_day"] - u["first_day"]).to_numpy().astype(np.int64)
    n = u["n_events"].to_numpy().astype(np.int64)
    lb = _bucket(life, LIFETIME_EDGES)
    ab = _bucket(n, ACTIVITY_EDGES)
    mat = np.zeros((5, 5), dtype=np.int64)
    np.add.at(mat, (lb, ab), 1)
    li, ai = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    return ray.data.from_arrow(pa.table({
        "lifetime_bucket": pa.array(li.ravel(), type=pa.int64()),
        "activity_bucket": pa.array(ai.ravel(), type=pa.int64()),
        "n_users": pa.array(mat.ravel(), type=pa.int64()),
    }))


def _sql_ladder(col: str, edges: tuple) -> str:
    return " + ".join(
        f"CASE WHEN {col} > {e} THEN 1 ELSE 0 END" for e in edges)


SQL_LIFETIME_ACTIVITY_MATRIX = f"""
WITH u AS (
  SELECT user_id,
         MAX(epoch_us(ts) // {DAY_US}) - MIN(epoch_us(ts) // {DAY_US})
             AS life,
         COUNT(*) AS n
  FROM events GROUP BY user_id
), b AS (
  SELECT ({_sql_ladder('life', LIFETIME_EDGES)}) AS lb,
         ({_sql_ladder('n', ACTIVITY_EDGES)}) AS ab
  FROM u
), grid AS (
  SELECT l.l AS lifetime_bucket, a.a AS activity_bucket
  FROM (SELECT UNNEST(range(5)) AS l) l
  CROSS JOIN (SELECT UNNEST(range(5)) AS a) a
)
SELECT CAST(g.lifetime_bucket AS BIGINT) AS lifetime_bucket,
       CAST(g.activity_bucket AS BIGINT) AS activity_bucket,
       CAST(COALESCE(COUNT(b.lb), 0) AS BIGINT) AS n_users
FROM grid g
LEFT JOIN b ON b.lb = g.lifetime_bucket AND b.ab = g.activity_bucket
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# weekend_share_histogram
# --------------------------------------------------------------------------


def q_weekend_share_histogram(sf_dir: str):
    import ray
    u = _user_rollup(sf_dir)
    n = u["n_events"].to_numpy().astype(np.int64)
    w = u["n_weekend"].to_numpy().astype(np.int64)
    bucket = (10 * w) // n
    hist = np.bincount(bucket, minlength=11).astype(np.int64)
    return ray.data.from_arrow(pa.table({
        "share_bucket": pa.array(np.arange(11), type=pa.int64()),
        "n_users": pa.array(hist, type=pa.int64()),
    }))


SQL_WEEKEND_SHARE_HISTOGRAM = f"""
WITH u AS (
  SELECT user_id,
         COUNT(*) AS n,
         SUM(CASE WHEN (epoch_us(ts) // {DAY_US}) % 7 IN (2, 3)
                  THEN 1 ELSE 0 END) AS w
  FROM events GROUP BY user_id
)
SELECT CAST(g.b AS BIGINT) AS share_bucket,
       CAST(COALESCE(COUNT(u.n), 0) AS BIGINT) AS n_users
FROM (SELECT UNNEST(range(11)) AS b) g
LEFT JOIN u ON (10 * u.w) // u.n = g.b
GROUP BY 1
"""


def build_queries_ext138() -> dict:
    return {
        "lifetime_activity_matrix": q_lifetime_activity_matrix,
        "weekend_share_histogram": q_weekend_share_histogram,
    }


def build_oracles_ext138() -> dict:
    return {
        "lifetime_activity_matrix": SQL_LIFETIME_ACTIVITY_MATRIX,
        "weekend_share_histogram": SQL_WEEKEND_SHARE_HISTOGRAM,
    }
