"""Round-3 extension operators, batch 56: normalization + anomaly flags.

* ``value_zscores`` — per-type z-score normalization of every event's
  value (the feature-engineering standardize step): per-type moments are
  EXACT integers (count, sum-of-cents, sum-of-squared-cents — squared
  sums exceed int64 by design, so the bounded per-type stats fold on the
  driver in Python arbitrary precision / HUGEINT in SQL), and each row's
  z is the mirrored float expression ``(c - sum/n) / (sqrt(n*sq - sm^2)/n)``
  — bit-exact on both sides, with the sd = 0 degenerate pinned to 0.
* ``anomalous_days`` — time-series anomaly detection on the daily event
  counts: median/MAD fences computed on the BOUNDED day histogram with
  pure integer order statistics (lower median), flagging days with
  ``|n - median| > 5 * MAD`` — no float anywhere, so the oracle is exact
  by construction (MAD = 0 degenerates to "any deviation flags").
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
Z_FENCE = 3.0
MAD_FENCE = 5


def q_value_zscores(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "event_type": batch.column("event_type"),
            "c": pa.array(cents, type=pa.int64()),
        })

    rows = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    def moments(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy().astype(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "n": pa.array(np.ones(len(c), np.int64)),
            "sm": pa.array(c, type=pa.int64()),
            # per-row squares fit int64 (cents <= ~10^6); the cross-type SUM
            # is re-folded in Python ints below, so no int64 overflow path
            "sq": pa.array(c * c, type=pa.int64()),
        })
        out = t.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("sm", "sum"), ("sq", "sum")]
        )
        return pa.table({
            "event_type": out.column("event_type"),
            "n": pc.cast(out.column("n_sum"), pa.int64()),
            "sm": pc.cast(out.column("sm_sum"), pa.int64()),
            "sq": pc.cast(out.column("sq_sum"), pa.int64()),
        })

    stats = grouped_aggregate(
        rows.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"],
        [("sum", "n", "n"), ("sum", "sm", "sm"), ("sum", "sq", "sq")],
    ).to_pandas()  # bounded: one row per event type

    mean_sd = {}
    for r in stats.itertuples():
        n, sm, sq = int(r.n), int(r.sm), int(r.sq)
        mean = float(sm) / float(n)
        sd = math.sqrt(float(n * sq - sm * sm)) / float(n)
        mean_sd[r.event_type] = (mean, sd)
    ref = ray.put(mean_sd)

    def zscore(batch: pa.Table) -> pa.Table:
        import ray as _r

        lk = _r.get(ref)
        et = batch.column("event_type").to_pylist()
        c = batch.column("c").to_numpy().astype(np.int64)
        mean = np.array([lk[t][0] for t in et], dtype=np.float64)
        sd = np.array([lk[t][1] for t in et], dtype=np.float64)
        z = np.where(sd == 0.0, 0.0, (c.astype(np.float64) - mean) / sd)
        return pa.table({
            "event_id": batch.column("event_id"),
            "event_type": batch.column("event_type"),
            "value_cents": pa.array(c, type=pa.int64()),
            "z": pa.array(z, type=pa.float64()),
            "is_outlier": pa.array(
                ((sd != 0.0) & (np.abs(z) > Z_FENCE)).astype(np.int64),
                type=pa.int64()),
        })

    return rows.map_batches(zscore, batch_format="pyarrow", zero_copy_batch=True)


SQL_VALUE_ZSCORES = f"""
WITH e AS (
  SELECT event_id, event_type,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
), s AS (
  SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(c) AS HUGEINT) AS sm,
         CAST(SUM(CAST(c AS HUGEINT) * c) AS HUGEINT) AS sq
  FROM e GROUP BY 1
), st AS (
  SELECT event_type,
         CAST(sm AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
         SQRT(CAST(n * sq - sm * sm AS DOUBLE)) / CAST(n AS DOUBLE) AS sd
  FROM s
)
SELECT e.event_id, e.event_type, e.c AS value_cents,
       CASE WHEN st.sd = 0 THEN 0.0
            ELSE (CAST(e.c AS DOUBLE) - st.mean) / st.sd END AS z,
       CAST(CASE WHEN st.sd <> 0
                  AND ABS((CAST(e.c AS DOUBLE) - st.mean) / st.sd) > {Z_FENCE}
                 THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
FROM e JOIN st USING (event_type)
"""


def q_anomalous_days(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def daily(batch: pa.Table) -> pa.Table:
        tu = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        day = tu // DAY_US
        t = pa.table({"day": pa.array(day, type=pa.int64())})
        out = t.group_by(["day"]).aggregate([("day", "count")])
        return pa.table({
            "day": out.column("day"),
            "n_events": pc.cast(out.column("day_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(daily, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "n_events", "n_events")],
    ).to_pandas()  # bounded: one row per calendar day

    n = np.sort(hist["n_events"].to_numpy().astype(np.int64))
    med = int(n[(len(n) - 1) // 2])  # lower median — pure integer
    dev = np.sort(np.abs(hist["n_events"].to_numpy().astype(np.int64) - med))
    mad = int(dev[(len(dev) - 1) // 2])
    counts = hist["n_events"].to_numpy().astype(np.int64)
    t = pa.table({
        "day": pa.array(hist["day"].to_numpy().astype(np.int64), type=pa.int64()),
        "n_events": pa.array(counts, type=pa.int64()),
        "median_n": pa.array(np.full(len(counts), med, np.int64), type=pa.int64()),
        "mad_n": pa.array(np.full(len(counts), mad, np.int64), type=pa.int64()),
        "is_anomaly": pa.array(
            (np.abs(counts - med) > MAD_FENCE * mad).astype(np.int64),
            type=pa.int64()),
    })
    return ray.data.from_arrow(t)


SQL_ANOMALOUS_DAYS = f"""
WITH daily AS (
  SELECT epoch_us(ts) // {DAY_US} AS day, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), med AS (
  SELECT n AS m FROM (
    SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rn,
           COUNT(*) OVER () AS d
    FROM daily
  ) WHERE rn = (d + 1) // 2
), mad AS (
  SELECT a AS m FROM (
    SELECT ABS(n - (SELECT m FROM med)) AS a,
           ROW_NUMBER() OVER (ORDER BY ABS(n - (SELECT m FROM med))) AS rn,
           COUNT(*) OVER () AS d
    FROM daily
  ) WHERE rn = (d + 1) // 2
)
SELECT CAST(day AS BIGINT) AS day, n AS n_events,
       (SELECT m FROM med) AS median_n,
       (SELECT m FROM mad) AS mad_n,
       CAST(CASE WHEN ABS(n - (SELECT m FROM med))
                      > {MAD_FENCE} * (SELECT m FROM mad)
                 THEN 1 ELSE 0 END AS BIGINT) AS is_anomaly
FROM daily
"""


def build_queries_ext56() -> dict:
    return {
        "value_zscores": q_value_zscores,
        "anomalous_days": q_anomalous_days,
    }


def build_oracles_ext56() -> dict:
    return {
        "value_zscores": SQL_VALUE_ZSCORES,
        "anomalous_days": SQL_ANOMALOUS_DAYS,
    }
