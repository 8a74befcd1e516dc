"""Round-3 extension operators, batch 62: correlated-average and
HAVING-subquery join-back shapes (TPC-H Q17 / Q18 adaptations).

``small_qty_revenue_q17`` — revenue from lineitems whose quantity is
below 20% of the per-part average, over a type-filtered part subset.
The classic correlated scalar subquery, decorrelated into two passes:
pass 1 computes per-part ``(sum_qty, count)`` through the bounded
part-keyed aggregate (part is a dimension — the group count is capped
by the dim size), pass 2 re-scans lineitem comparing
``qty * 5 * count < sum_qty`` — the exact integer cross-multiply form
of ``qty < 0.2 * avg`` (quantities are integral).  No float division
anywhere, so the oracle matches bit-for-bit.

``large_volume_customers_q18`` — orders whose total lineitem quantity
exceeds a threshold (the HAVING subquery), joined back to orders and
customer for the output row.  Per-order sums flow through the
high-cardinality hash exchange, then two co-partitioned INNER
exchanges (orderkey, then custkey) attach the order and customer
payloads — the filtered aggregate never round-trips through the
driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange, n_partitions


Q17_TYPE = "ECONOMY"
Q18_MIN_QTY = 180


def q_small_qty_revenue_q17(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    keep = pc.equal(part.column("p_type"), Q17_TYPE).to_numpy(
        zero_copy_only=False)
    part_keys = np.sort(
        part.column("p_partkey").to_numpy().astype(np.int64)[keep])

    def in_set(arr: np.ndarray) -> np.ndarray:
        if len(part_keys) == 0:
            return np.zeros(len(arr), dtype=bool)
        pos = np.clip(np.searchsorted(part_keys, arr), 0, len(part_keys) - 1)
        return part_keys[pos] == arr

    # pass 1: per-part (sum_qty, count) — bounded by the part dim size
    def qty_partial(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy().astype(np.int64)
        qty = pc.cast(pc.round(batch.column("l_quantity")), pa.int64()).to_numpy()
        m = in_set(pk)
        return pa.table({
            "l_partkey": pa.array(pk[m], type=pa.int64()),
            "qty": pa.array(qty[m], type=pa.int64()),
        })

    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]
    stats = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["l_partkey"],
        [("sum", "qty", "sum_qty"), ("count", None, "cnt")],
    ).to_pandas()  # bounded: one row per filtered part

    sp = stats["l_partkey"].to_numpy().astype(np.int64)
    order = np.argsort(sp)
    sp = sp[order]
    s_sum = stats["sum_qty"].to_numpy().astype(np.int64)[order]
    s_cnt = stats["cnt"].to_numpy().astype(np.int64)[order]

    # pass 2: qty*5*cnt < sum_qty  <=>  qty < 0.2 * (sum/cnt), exactly
    def select_small(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy().astype(np.int64)
        qty = pc.cast(pc.round(batch.column("l_quantity")), pa.int64()).to_numpy()
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        if len(sp):
            pos = np.clip(np.searchsorted(sp, pk), 0, len(sp) - 1)
            hit = sp[pos] == pk
            m = hit & (qty * 5 * s_cnt[pos] < s_sum[pos])
        else:
            m = np.zeros(len(pk), dtype=bool)
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n_rows": pa.array([int(m.sum())], type=pa.int64()),
            "sum_price_cents": pa.array([int(cents[m].sum())],
                                        type=pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=li_cols)
        .map_batches(select_small, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["k"],
        [("sum", "n_rows", "n_rows"),
         ("sum", "sum_price_cents", "sum_price_cents")],
    ).select_columns(["n_rows", "sum_price_cents"])


SQL_SMALL_QTY_REVENUE_Q17 = f"""
WITH st AS (
  SELECT l.l_partkey,
         CAST(SUM(CAST(ROUND(l.l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
  WHERE p.p_type = '{Q17_TYPE}'
  GROUP BY l.l_partkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COALESCE(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)), 0)
            AS BIGINT) AS sum_price_cents
FROM lineitem l JOIN st ON l.l_partkey = st.l_partkey
WHERE CAST(ROUND(l.l_quantity) AS BIGINT) * 5 * st.cnt < st.sum_qty
"""


def q_large_volume_customers_q18(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    from .queries_ext60 import _attach_inner

    import ray
    P = n_partitions(n_parts)

    # per-order quantity sums (groups ~ orders -> high-cardinality exchange)
    def qty_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()),
            "total_qty": pc.cast(pc.round(batch.column("l_quantity")),
                                 pa.int64()),
        })

    def above_threshold(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch.column("total_qty"),
                                       Q18_MIN_QTY))

    per_order = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_quantity"])
        .map_batches(qty_cols, batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderkey"],
        [("sum", "total_qty", "total_qty")],
    ).map_batches(above_threshold, batch_format="pyarrow",
                  zero_copy_batch=True)

    # join-back pass 1 (orderkey): filtered sums (facts) x orders (dim)
    def key_sums(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "total_qty": batch.column("total_qty"),
            "o_custkey": pa.nulls(n, type=pa.int64()),
            "totalprice_cents": pa.nulls(n, type=pa.int64()),
            "order_date_us": pa.nulls(n, type=pa.int64()),
        })

    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "total_qty": pa.nulls(n, type=pa.int64()),
            "o_custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
            "totalprice_cents": pc.cast(
                pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
                pa.int64()),
            "order_date_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)

    pass1 = hash_exchange(
        per_order.map_batches(key_sums, batch_format="pyarrow",
                              zero_copy_batch=True).union(od),
        "o_orderkey", lambda g: _attach_inner(g, "o_orderkey"), P,
    )

    # join-back pass 2 (custkey): x customer for the name
    def rekey_facts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return (
            batch.append_column("__side", pa.array(np.zeros(n, np.int64)))
            .append_column("c_name", pa.nulls(n, type=pa.string()))
        )

    def key_cust(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        n = len(ck)
        return pa.table({
            "o_orderkey": pa.nulls(n, type=pa.int64()),
            "total_qty": pa.nulls(n, type=pa.int64()),
            "o_custkey": pa.array(ck, type=pa.int64()),
            "totalprice_cents": pa.nulls(n, type=pa.int64()),
            "order_date_us": pa.nulls(n, type=pa.int64()),
            "__side": pa.array(np.ones(n, np.int64)),
            "c_name": batch.column("c_name"),
        })

    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)

    pass2 = hash_exchange(
        pass1.map_batches(rekey_facts, batch_format="pyarrow",
                          zero_copy_batch=True).union(cu),
        "o_custkey", lambda g: _attach_inner(g, "o_custkey"), P,
    )
    return pass2.select_columns(
        ["c_name", "o_custkey", "o_orderkey", "order_date_us",
         "totalprice_cents", "total_qty"]
    )


SQL_LARGE_VOLUME_CUSTOMERS_Q18 = f"""
SELECT c.c_name,
       c.c_custkey AS o_custkey,
       o.o_orderkey,
       CAST(epoch_us(o.o_orderdate) AS BIGINT) AS order_date_us,
       CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS totalprice_cents,
       CAST(SUM(CAST(ROUND(l.l_quantity) AS BIGINT)) AS BIGINT) AS total_qty
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE o.o_orderkey IN (
  SELECT l_orderkey FROM lineitem
  GROUP BY l_orderkey
  HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > {Q18_MIN_QTY}
)
GROUP BY c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate, o.o_totalprice
"""


def build_queries_ext62() -> dict:
    return {
        "small_qty_revenue_q17": q_small_qty_revenue_q17,
        "large_volume_customers_q18": q_large_volume_customers_q18,
    }


def build_oracles_ext62() -> dict:
    return {
        "small_qty_revenue_q17": SQL_SMALL_QTY_REVENUE_Q17,
        "large_volume_customers_q18": SQL_LARGE_VOLUME_CUSTOMERS_Q18,
    }
