"""Round-3 extension operators, batch 131: greedy funnel pattern
matching + customer priority drift.

``funnel_pattern_match`` — MATCH_RECOGNIZE-style sequence pattern
matching with per-step deadlines: for every user with at least one
'view', the EARLIEST-MATCH greedy chain

    first view  →  first click STRICTLY after it within 1 h
                →  first purchase strictly after that click within 1 h

emitting the reached stage (1–3) and the three timestamps (−1
sentinel for unmatched steps, so no NULL-dtype drift crosses the
oracle hash).  Greedy-earliest is deterministic and SQL-replayable
with MIN-chains — the semantics knot MATCH_RECOGNIZE implementations
differ on is pinned here by construction.  Shape: one user-hash
co-partition; per partition the three per-type timelines are packed
with the ext129 rank·SPAN+offset keys so every step resolves with one
vectorized searchsorted (no per-user Python loop).

``customer_priority_drift`` — per customer: the priority of their
FIRST and LAST order by (o_orderdate, o_orderkey) and the drift flag.
One packed min/max aggregate: ``(day·2^21 + orderkey)·8 +
priority_class`` carries the tie-correct argmin/argmax AND its
payload through the map-side combine (day < 2^15, orderkey < 2^21,
5 priority classes — fits int64 with headroom).  Oracle:
FIRST/LAST(priority ORDER BY o_orderdate, o_orderkey).

Reference anchors: sequence-analytics family (SURVEY.md §2.4);
siblings: conversion_funnel (unconstrained funnel), abandoned_view_
counts (packed interval probes), user_first_last / canonical_docs
(packed argmin payload carry).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

STEP_WINDOW_US = 3_600_000_000  # 1 hour per funnel step
FUNNEL_STEPS = ("view", "click", "purchase")


# --------------------------------------------------------------------------
# funnel_pattern_match
# --------------------------------------------------------------------------


def q_funnel_pattern_match(sf_dir: str, n_parts: int | None = None):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"])

    def keyed(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        keep = pc.is_in(et, value_set=pa.array(FUNNEL_STEPS))
        b = batch.filter(keep)
        uid = b.column("user_id").to_numpy().astype(np.int64)
        step = np.array(
            [FUNNEL_STEPS.index(t) for t in
             b.column("event_type").to_pylist()], dtype=np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pc.cast(b.column("ts"), pa.int64()),
            "step": pa.array(step, type=pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        st = group.column("step").to_numpy().astype(np.int64)
        if len(ts) == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "stage": pa.array([], type=pa.int64()),
                "view_ts": pa.array([], type=pa.int64()),
                "click_ts": pa.array([], type=pa.int64()),
                "purchase_ts": pa.array([], type=pa.int64()),
            })
        tmin = int(ts.min())
        span = int(ts.max()) - tmin + STEP_WINDOW_US + 2
        users = np.unique(uid)
        rank = np.searchsorted(users, uid)
        key = rank * span + (ts - tmin)

        def timeline(step_idx):
            m = st == step_idx
            k = np.sort(key[m])
            return k

        vk, ck_, pk_ = timeline(0), timeline(1), timeline(2)
        # earliest view per user: first vk in each user's rank block
        vrank = vk // span
        first = np.empty(len(vk), dtype=bool)
        if len(vk):
            first[0] = True
            first[1:] = vrank[1:] != vrank[:-1]
        fv = vk[first]
        frank = vrank[first]
        view_ts = (fv % span) + tmin

        def next_within(keys, base_key, base_rank):
            """First element strictly after base_key, same rank, within
            the step window — one searchsorted, −1 where unmatched."""
            idx = np.searchsorted(keys, base_key, side="right")
            ok = idx < len(keys)
            out = np.full(len(base_key), -1, dtype=np.int64)
            ii = idx[ok]
            cand = keys[np.minimum(ii, len(keys) - 1)] if len(keys) else ii
            if len(keys):
                good = (cand // span == base_rank[ok]) & \
                       (cand - base_key[ok] <= STEP_WINDOW_US)
                sel = np.zeros(ok.sum(), dtype=np.int64) - 1
                sel[good] = (cand[good] % span) + tmin
                out[ok] = sel
            return out

        click_ts = next_within(ck_, fv, frank)
        has_c = click_ts >= 0
        ckey = np.where(has_c, frank * span + (click_ts - tmin), 0)
        purchase_ts = np.full(len(fv), -1, dtype=np.int64)
        if has_c.any():
            purchase_ts[has_c] = next_within(
                pk_, ckey[has_c], frank[has_c])
        stage = 1 + has_c.astype(np.int64) + (purchase_ts >= 0)
        return pa.table({
            "user_id": pa.array(users[frank], type=pa.int64()),
            "stage": pa.array(stage, type=pa.int64()),
            "view_ts": pa.array(view_ts, type=pa.int64()),
            "click_ts": pa.array(click_ts, type=pa.int64()),
            "purchase_ts": pa.array(purchase_ts, type=pa.int64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", per_partition, n_parts,
    )


SQL_FUNNEL_PATTERN_MATCH = """
WITH fv AS (
  SELECT user_id, CAST(epoch_us(MIN(ts)) AS BIGINT) AS vt
  FROM events WHERE event_type = 'view' GROUP BY user_id
),
fc AS (
  SELECT f.user_id, f.vt,
         (SELECT CAST(epoch_us(MIN(e.ts)) AS BIGINT) FROM events e
          WHERE e.user_id = f.user_id AND e.event_type = 'click'
            AND epoch_us(e.ts) > f.vt
            AND epoch_us(e.ts) <= f.vt + 3600000000) AS ct
  FROM fv f
),
fp AS (
  SELECT c.user_id, c.vt, c.ct,
         (SELECT CAST(epoch_us(MIN(e.ts)) AS BIGINT) FROM events e
          WHERE e.user_id = c.user_id AND e.event_type = 'purchase'
            AND c.ct IS NOT NULL
            AND epoch_us(e.ts) > c.ct
            AND epoch_us(e.ts) <= c.ct + 3600000000) AS pt
  FROM fc c
)
SELECT user_id,
       CAST(1 + CASE WHEN ct IS NULL THEN 0 ELSE 1 END
              + CASE WHEN pt IS NULL THEN 0 ELSE 1 END AS BIGINT) AS stage,
       vt AS view_ts,
       COALESCE(ct, -1) AS click_ts,
       COALESCE(pt, -1) AS purchase_ts
FROM fp
"""


# --------------------------------------------------------------------------
# customer_priority_drift
# --------------------------------------------------------------------------

DAY_US = 86_400_000_000


def q_customer_priority_drift(sf_dir: str):
    from .agg import distinct_values, grouped_aggregate

    import ray
    # distributed distinct — never a driver column scan of the fact table
    pri = distinct_values(f"{sf_dir}/orders.parquet", "o_orderpriority")
    pidx = {p: i for i, p in enumerate(pri)}
    NP = len(pri)

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate",
                 "o_orderpriority"])

    def pack(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy() \
            // DAY_US
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        p = np.array([pidx[x] for x in
                      batch.column("o_orderpriority").to_pylist()],
                     dtype=np.int64)
        packed = ((day << np.int64(21)) + okey) * NP + p
        return pa.table({
            "c_custkey": batch.column("o_custkey"),
            "packed": pa.array(packed, type=pa.int64()),
        })

    agg = grouped_aggregate(
        ds.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True),
        ["c_custkey"],
        [("min", "packed", "first_p"), ("max", "packed", "last_p")],
    )

    pri_arr = pa.array(pri, type=pa.string())

    def decode(batch: pa.Table) -> pa.Table:
        f = batch.column("first_p").to_numpy().astype(np.int64)
        l = batch.column("last_p").to_numpy().astype(np.int64)
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "first_priority": pri_arr.take(pa.array(f % NP)),
            "last_priority": pri_arr.take(pa.array(l % NP)),
            "drifted": pa.array((f % NP != l % NP).astype(np.int64),
                                type=pa.int64()),
        })

    return agg.map_batches(decode, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_CUSTOMER_PRIORITY_DRIFT = """
SELECT o_custkey AS c_custkey,
       FIRST(o_orderpriority ORDER BY o_orderdate, o_orderkey)
           AS first_priority,
       LAST(o_orderpriority ORDER BY o_orderdate, o_orderkey)
           AS last_priority,
       CAST(CASE WHEN FIRST(o_orderpriority
                            ORDER BY o_orderdate, o_orderkey)
                   <> LAST(o_orderpriority
                           ORDER BY o_orderdate, o_orderkey)
                 THEN 1 ELSE 0 END AS BIGINT) AS drifted
FROM orders GROUP BY o_custkey
"""


def build_queries_ext131() -> dict:
    return {
        "funnel_pattern_match": q_funnel_pattern_match,
        "customer_priority_drift": q_customer_priority_drift,
    }


def build_oracles_ext131() -> dict:
    return {
        "funnel_pattern_match": SQL_FUNNEL_PATTERN_MATCH,
        "customer_priority_drift": SQL_CUSTOMER_PRIORITY_DRIFT,
    }
