"""Round-3 extension operators, batch 69: time-weighted aggregation and
change-point detection.

``user_time_weighted_value`` — the irregular-series integral: per
user, the left-hold (step function) time integral of the event value,
``Σ (t_{i+1} - t_i) * v_i`` in exact microsecond-cents, plus the
elapsed span — the time-weighted average is the consumer's single
division.  Same co-partition + lexsort + adjacent-diff shape as the
lag-1 moments, different semantics: values weighted by how LONG they
held, not how often they occurred.

``daily_cusum_changepoint`` — CUSUM change-point detection over the
per-type daily count series (gap days count 0): the cumulative sum of
``T * x_d - total`` (scaled by T so the "count minus mean" deviation
stays an exact integer) and its maximum absolute excursion + argmax
day — where the series most decisively changed level.  The day x type
table is bounded, so the fold is a driver-side pass over a histogram,
the anomalous_days discipline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

DAY_US = 86_400_000_000


def q_user_time_weighted_value(sf_dir: str, n_parts: int | None = None):
    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(batch.column("value"),
                                                  100.0)), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        v = group.column("cents").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, v = uid[order], ts[order], v[order]
        same = np.empty(len(uid), dtype=bool)
        same[:-1] = uid[1:] == uid[:-1]
        same[-1] = False
        dt = np.where(same, np.roll(ts, -1) - ts, 0)
        starts = np.flatnonzero(
            np.concatenate([[True], uid[1:] != uid[:-1]]))
        ends = np.concatenate([starts[1:], [len(uid)]]) - 1
        users = uid[starts]
        integral = np.add.reduceat(dt * v, starts)
        span = ts[ends] - ts[starts]
        return pa.table({
            "user_id": pa.array(users, type=pa.int64()),
            "twv_num": pa.array(integral, type=pa.int64()),
            "twv_den_us": pa.array(span, type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    return hash_exchange(ds, "user_id", per_partition, n_parts)


SQL_USER_TIME_WEIGHTED_VALUE = """
WITH seq AS (
  SELECT user_id,
         CAST(epoch_us(ts) AS BIGINT) AS t,
         CAST(ROUND(value * 100) AS BIGINT) AS v,
         LEAD(CAST(epoch_us(ts) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY ts, event_id) AS t_next
  FROM events
)
SELECT user_id,
       CAST(COALESCE(SUM((t_next - t) * v), 0) AS BIGINT) AS twv_num,
       CAST(MAX(t) - MIN(t) AS BIGINT) AS twv_den_us
FROM seq GROUP BY user_id
"""


def q_daily_cusum_changepoint(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def daily(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        t = pa.table({
            "event_type": batch.column("event_type"),
            "day": pa.array(day, type=pa.int64()),
        })
        out = t.group_by(["event_type", "day"]).aggregate([("day", "count")])
        return pa.table({
            "event_type": out.column("event_type"),
            "day": out.column("day"),
            "n": pc.cast(out.column("day_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["ts", "event_type"])
        .map_batches(daily, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "day"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: one row per (type, calendar day)

    import pandas as pd

    lo, hi = int(hist["day"].min()), int(hist["day"].max())
    all_days = np.arange(lo, hi + 1, dtype=np.int64)
    T = len(all_days)
    rows = []
    for etype, g in hist.groupby("event_type"):
        x = np.zeros(T, dtype=np.int64)
        x[g["day"].to_numpy().astype(np.int64) - lo] = \
            g["n"].to_numpy().astype(np.int64)
        total = int(x.sum())
        s = np.cumsum(T * x - total)  # exact: deviation scaled by T
        k = int(np.argmax(np.abs(s)))  # earliest day on ties
        rows.append({
            "event_type": etype,
            "cp_day": int(all_days[k]),
            "max_abs_cusum": int(abs(s[k])),
            "total_events": total,
            "n_days": T,
        })
    out = pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)
    for c in ("cp_day", "max_abs_cusum", "total_events", "n_days"):
        out[c] = out[c].astype("int64")
    return out


SQL_DAILY_CUSUM_CHANGEPOINT = f"""
WITH ev AS (
  SELECT event_type, CAST(epoch_us(ts) AS BIGINT) // {DAY_US} AS day
  FROM events
),
bounds AS (
  SELECT MIN(day) AS lo, MAX(day) AS hi, hi - lo + 1 AS T FROM ev
),
days AS (
  SELECT unnest(generate_series(lo, hi)) AS day FROM bounds
),
types AS (SELECT DISTINCT event_type FROM ev),
grid AS (SELECT t.event_type, d.day FROM types t, days d),
cnt AS (
  SELECT event_type, day, CAST(COUNT(*) AS BIGINT) AS n
  FROM ev GROUP BY event_type, day
),
filled AS (
  SELECT g.event_type, g.day, COALESCE(c.n, 0) AS n
  FROM grid g LEFT JOIN cnt c
    ON g.event_type = c.event_type AND g.day = c.day
),
tot AS (
  SELECT event_type, CAST(SUM(n) AS BIGINT) AS total FROM filled
  GROUP BY event_type
),
cus AS (
  SELECT f.event_type, f.day,
         SUM(b.T * f.n - t.total) OVER
           (PARTITION BY f.event_type ORDER BY f.day
            ROWS UNBOUNDED PRECEDING) AS s,
         t.total, b.T
  FROM filled f JOIN tot t ON f.event_type = t.event_type, bounds b
),
ranked AS (
  SELECT event_type, day, ABS(s) AS a, total, T,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY ABS(s) DESC, day ASC) AS rk
  FROM cus
)
SELECT event_type,
       CAST(day AS BIGINT) AS cp_day,
       CAST(a AS BIGINT) AS max_abs_cusum,
       total AS total_events,
       CAST(T AS BIGINT) AS n_days
FROM ranked WHERE rk = 1
"""


def build_queries_ext69() -> dict:
    return {
        "user_time_weighted_value": q_user_time_weighted_value,
        "daily_cusum_changepoint": q_daily_cusum_changepoint,
    }


def build_oracles_ext69() -> dict:
    return {
        "user_time_weighted_value": SQL_USER_TIME_WEIGHTED_VALUE,
        "daily_cusum_changepoint": SQL_DAILY_CUSUM_CHANGEPOINT,
    }
