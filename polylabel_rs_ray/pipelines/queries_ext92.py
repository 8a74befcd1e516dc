"""Round-3 extension operators, batch 92: financial reconciliation and
rate-limit auditing.

``order_reconciliation`` — the double-entry check: does each order's
header total equal the sum of its lineitem extended prices?  Per-order
lineitem sums flow through the high-cardinality exchange, the header
attaches through one co-partitioned INNER exchange, and the audit
reports exact-match / mismatch counts plus the total absolute
discrepancy in cents (this synthetic schema does NOT reconcile — the
audit measures by how much, exactly).

``rate_limit_audit`` — the abuse-detection primitive: each user's
maximum event count inside ANY sliding 1-hour window.  The max over
all windows equals the max over windows anchored at events, so a
per-user sorted two-pointer (searchsorted on the event times) gives
the exact answer with no window materialization; the SQL oracle is
the literal anchored-window count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

RATE_WINDOW_US = 3_600_000_000  # 1 hour


def q_order_reconciliation(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    from .queries_ext60 import _attach_inner

    import ray

    def li_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()),
            "li_cents": pc.cast(
                pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
                pa.int64()),
        })

    per_order = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_extendedprice"])
        .map_batches(li_cols, batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderkey"],
        [("sum", "li_cents", "li_cents")],
    )

    def key_sums(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(k)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(k, type=pa.int64()),
            "li_cents": batch.column("li_cents"),
            "hdr_cents": pa.nulls(n, type=pa.int64()),
        })

    def key_orders(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(k)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(k, type=pa.int64()),
            "li_cents": pa.nulls(n, type=pa.int64()),
            "hdr_cents": pc.cast(
                pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
                pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_exchange(
        per_order.map_batches(key_sums, batch_format="pyarrow",
                              zero_copy_batch=True).union(od),
        "o_orderkey", lambda g: _attach_inner(g, "o_orderkey"), n_parts,
    )

    def audit(batch: pa.Table) -> pa.Table:
        li = batch.column("li_cents").to_numpy().astype(np.int64)
        hdr = batch.column("hdr_cents").to_numpy().astype(np.int64)
        diff = np.abs(hdr - li)
        return pa.table({
            "g": pa.array([0], type=pa.int64()),
            "n_orders": pa.array([len(li)], type=pa.int64()),
            "n_exact": pa.array([int((diff == 0).sum())], type=pa.int64()),
            "abs_diff_cents": pa.array([int(diff.sum())], type=pa.int64()),
        })

    agg = grouped_aggregate(
        joined.map_batches(audit, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["g"],
        [("sum", "n_orders", "n_orders"), ("sum", "n_exact", "n_exact"),
         ("sum", "abs_diff_cents", "abs_diff_cents")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n_orders").to_numpy().astype(np.int64)
        e = batch.column("n_exact").to_numpy().astype(np.int64)
        return pa.table({
            "n_orders": batch.column("n_orders"),
            "n_exact": batch.column("n_exact"),
            "n_mismatch": pa.array(n - e, type=pa.int64()),
            "abs_diff_cents": batch.column("abs_diff_cents"),
        })

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_ORDER_RECONCILIATION = """
WITH li AS (
  SELECT l_orderkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS li_cents
  FROM lineitem GROUP BY l_orderkey
),
j AS (
  SELECT CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS hdr_cents,
         li.li_cents
  FROM orders o JOIN li ON o.o_orderkey = li.l_orderkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CASE WHEN hdr_cents = li_cents THEN 1 ELSE 0 END)
            AS BIGINT) AS n_exact,
       CAST(SUM(CASE WHEN hdr_cents <> li_cents THEN 1 ELSE 0 END)
            AS BIGINT) AS n_mismatch,
       CAST(SUM(ABS(hdr_cents - li_cents)) AS BIGINT) AS abs_diff_cents
FROM j
"""


def q_rate_limit_audit(sf_dir: str, n_parts: int | None = None):
    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "t": pc.cast(batch.column("ts"), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        t = group.column("t").to_numpy().astype(np.int64)
        order = np.lexsort((t, uid))
        uid, t = uid[order], t[order]
        starts = np.flatnonzero(np.concatenate([[True], uid[1:] != uid[:-1]]))
        ends = np.concatenate([starts[1:], [len(uid)]])
        users, peaks = [], []
        for s, e in zip(starts, ends):
            tt = t[s:e]
            # events in [anchor, anchor + W): anchored two-pointer
            hi = np.searchsorted(tt, tt + RATE_WINDOW_US, side="left")
            peak = int((hi - np.arange(len(tt))).max())
            users.append(uid[s])
            peaks.append(peak)
        return pa.table({
            "user_id": pa.array(np.array(users, dtype=np.int64),
                                type=pa.int64()),
            "max_events_1h": pa.array(np.array(peaks, dtype=np.int64),
                                      type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    return hash_exchange(ds, "user_id", per_partition, n_parts)


SQL_RATE_LIMIT_AUDIT = f"""
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t FROM events
),
anchored AS (
  SELECT a.user_id,
         (SELECT COUNT(*) FROM e b
          WHERE b.user_id = a.user_id
            AND b.t >= a.t AND b.t < a.t + {RATE_WINDOW_US}) AS w
  FROM e a
)
SELECT user_id, CAST(MAX(w) AS BIGINT) AS max_events_1h
FROM anchored GROUP BY user_id
"""


def build_queries_ext92() -> dict:
    return {
        "order_reconciliation": q_order_reconciliation,
        "rate_limit_audit": q_rate_limit_audit,
    }


def build_oracles_ext92() -> dict:
    return {
        "order_reconciliation": SQL_ORDER_RECONCILIATION,
        "rate_limit_audit": SQL_RATE_LIMIT_AUDIT,
    }
