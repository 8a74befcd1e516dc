"""Round-3 extension operators, batch 51: RFM customer segmentation.

``user_rfm_segments`` — the classic recency/frequency/monetary
segmentation over the event stream: per user, days since last activity
(relative to the global max event time), event count, and purchase
monetary total in exact cents; each dimension is banded by integer
arithmetic (R: 30-day buckets, F: count//10, M: cents//100000) and the
user carries the packed segment label plus its cohort size.

Scale shape: per-user moments ride the map-side-combined aggregate keyed
by user (one exchange; packed max keys are unnecessary — the three
moments are algebraic); the global max timestamp is a bounded pre-pass;
segment cohort sizes are a bounded (|segments|) aggregate collected and
broadcast back, the k-anonymity convention.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


def q_user_rfm_segments(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type", "value"]
    )

    def tmax(batch: pa.Table) -> pa.Table:
        tu = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "mx": pa.array([int(tu.max()) if len(tu) else -(2**62)],
                           type=pa.int64()),
        })

    tmax_us = int(
        grouped_aggregate(
            ds.map_batches(tmax, batch_format="pyarrow", zero_copy_batch=True),
            ["k"], [("max", "mx", "mx")],
        ).to_pandas()["mx"][0]
    )

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        tu = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        purchase = pc.equal(batch.column("event_type"), "purchase").to_numpy(
            zero_copy_only=False).astype(np.int64)
        cents = np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64)
        t = pa.table({
            "user_id": pa.array(uid),
            "last_tu": pa.array(tu),
            "n": pa.array(np.ones(len(uid), np.int64)),
            "spend": pa.array(purchase * cents),
        })
        out = t.group_by(["user_id"]).aggregate(
            [("last_tu", "max"), ("n", "sum"), ("spend", "sum")]
        )
        return pa.table({
            "user_id": out.column("user_id"),
            "last_tu": pc.cast(out.column("last_tu_max"), pa.int64()),
            "n": pc.cast(out.column("n_sum"), pa.int64()),
            "spend": pc.cast(out.column("spend_sum"), pa.int64()),
        })

    users = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("max", "last_tu", "last_tu"), ("sum", "n", "n"),
         ("sum", "spend", "spend")],
    ).materialize()  # two consumers: cohort sizes + the labeled output

    def segment(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        last = batch.column("last_tu").to_numpy().astype(np.int64)
        n = batch.column("n").to_numpy().astype(np.int64)
        spend = batch.column("spend").to_numpy().astype(np.int64)
        r = (tmax_us - last) // DAY_US // 30
        f = n // 10
        m = spend // 100_000
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "recency_days": pa.array((tmax_us - last) // DAY_US, type=pa.int64()),
            "n_events": pa.array(n, type=pa.int64()),
            "spend_cents": pa.array(spend, type=pa.int64()),
            "r_band": pa.array(r, type=pa.int64()),
            "f_band": pa.array(f, type=pa.int64()),
            "m_band": pa.array(m, type=pa.int64()),
        })

    labeled = users.map_batches(segment, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
    cohorts = grouped_aggregate(
        labeled, ["r_band", "f_band", "m_band"], [("count", None, "cohort_n")]
    ).to_pandas()  # bounded: |segments| rows
    lookup = {
        (int(r.r_band), int(r.f_band), int(r.m_band)): int(r.cohort_n)
        for r in cohorts.itertuples()
    }
    ref = ray.put(lookup)

    def attach(batch: pa.Table) -> pa.Table:
        lk = ray.get(ref)
        rb = batch.column("r_band").to_numpy().astype(np.int64)
        fb = batch.column("f_band").to_numpy().astype(np.int64)
        mb = batch.column("m_band").to_numpy().astype(np.int64)
        n = np.array([lk[(int(a), int(b), int(c))]
                      for a, b, c in zip(rb, fb, mb)], dtype=np.int64)
        return batch.append_column("cohort_n", pa.array(n, type=pa.int64()))

    return labeled.map_batches(attach, batch_format="pyarrow",
                               zero_copy_batch=True)


SQL_USER_RFM_SEGMENTS = f"""
WITH mx AS (
  SELECT MAX(epoch_us(ts)) AS tmax FROM events
), u AS (
  SELECT user_id,
         MAX(epoch_us(ts)) AS last_tu,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CASE WHEN event_type = 'purchase'
                       THEN CAST(ROUND(value * 100) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS spend
  FROM events GROUP BY user_id
), lab AS (
  SELECT user_id,
         ((SELECT tmax FROM mx) - last_tu) // {DAY_US} AS recency_days,
         n AS n_events, spend AS spend_cents,
         ((SELECT tmax FROM mx) - last_tu) // {DAY_US} // 30 AS r_band,
         n // 10 AS f_band, spend // 100000 AS m_band
  FROM u
), coh AS (
  SELECT r_band, f_band, m_band, CAST(COUNT(*) AS BIGINT) AS cohort_n
  FROM lab GROUP BY 1, 2, 3
)
SELECT l.user_id, CAST(l.recency_days AS BIGINT) AS recency_days,
       l.n_events, l.spend_cents,
       CAST(l.r_band AS BIGINT) AS r_band, CAST(l.f_band AS BIGINT) AS f_band,
       CAST(l.m_band AS BIGINT) AS m_band, c.cohort_n
FROM lab l JOIN coh c USING (r_band, f_band, m_band)
"""


def build_queries_ext51() -> dict:
    return {"user_rfm_segments": q_user_rfm_segments}


def build_oracles_ext51() -> dict:
    return {"user_rfm_segments": SQL_USER_RFM_SEGMENTS}
