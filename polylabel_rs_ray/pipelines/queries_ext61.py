"""Round-3 extension operators, batch 61: outer-join distribution and
global-scalar anti-join shapes (TPC-H Q13 / Q22 adaptations).

``customer_order_distribution_q13`` — the LEFT OUTER JOIN + double
aggregation: orders-per-customer counts (filtered), then the histogram
of those counts INCLUDING the zero bucket.  The engine never runs an
outer join: the per-customer counts flow through the high-cardinality
hash exchange, the count-histogram is a bounded second aggregate, and
the zero bucket is arithmetic — ``total_customers - customers_with_
orders`` — two driver scalars, no customer-side shuffle at all.

``global_sales_opportunity_q22`` — customers whose balance exceeds the
global positive-balance average and who have placed NO orders since a
cutoff date (the dormant-account variant — on this synthetic schema
every customer has at least one lifetime order), grouped by nation.  Three classic pieces: a global scalar computed as an exact
integer pair ``(sum_cents, n_pos)`` and compared by cross-multiply
(``cents * n > sum`` — no float division anywhere), an anti-join on
custkey through one co-partitioned hash exchange, and a bounded
nation-level aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


# Q13's "not like special requests" analogue on this schema.
Q13_EXCLUDE_PRIORITY = "1-URGENT"
# Q22 dormancy cutoff: customers with no orders on/after this date.
Q22_CUTOFF = "2000-01-01"


def q_customer_order_distribution_q13(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    total_customers = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )

    def filt(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(batch.column("o_orderpriority"),
                                  Q13_EXCLUDE_PRIORITY))
        return pa.table({
            "c_custkey": pc.cast(batch.filter(keep).column("o_custkey"),
                                 pa.int64()),
        })

    per_cust = grouped_aggregate(
        ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True),
        ["c_custkey"],
        [("count", None, "c_count")],
    )
    dist = grouped_aggregate(
        per_cust.select_columns(["c_count"]),
        ["c_count"],
        [("count", None, "custdist")],
    ).to_pandas()  # bounded: one row per distinct order count (~tens)

    n_with = int(dist["custdist"].sum())
    zero = int(total_customers) - n_with
    if zero > 0:
        import pandas as pd

        dist = pd.concat(
            [dist, pd.DataFrame({"c_count": [0], "custdist": [zero]})],
            ignore_index=True,
        )
    dist["c_count"] = dist["c_count"].astype("int64")
    dist["custdist"] = dist["custdist"].astype("int64")
    return dist.sort_values(["custdist", "c_count"],
                            ascending=[False, False]).reset_index(drop=True)


SQL_CUSTOMER_ORDER_DISTRIBUTION_Q13 = f"""
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
FROM (
  SELECT c.c_custkey,
         CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
  FROM customer c
  LEFT OUTER JOIN orders o
    ON c.c_custkey = o.o_custkey
   AND o.o_orderpriority <> '{Q13_EXCLUDE_PRIORITY}'
  GROUP BY c.c_custkey
) t
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def _anti_join(group: pa.Table, key: str) -> pa.Table:
    """Within one co-partition: keep fact rows (side 0) whose key has NO row
    on the exclusion side (side 1)."""
    side = group.column("__side").to_numpy().astype(np.int64)
    keys = group.column(key).to_numpy().astype(np.int64)
    is_dim = side == 1
    dim_sorted = np.sort(np.unique(keys[is_dim]))
    fact_keys = keys[~is_dim]
    if len(dim_sorted):
        pos = np.clip(np.searchsorted(dim_sorted, fact_keys), 0,
                      len(dim_sorted) - 1)
        keep = dim_sorted[pos] != fact_keys
    else:
        keep = np.ones(len(fact_keys), dtype=bool)
    return group.filter(pa.array(~is_dim)).filter(pa.array(keep))


def q_global_sales_opportunity_q22(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray

    # pass 0 — global scalar as an exact integer pair (sum_cents, n_pos):
    # a one-row aggregate, then the threshold is the cross-multiply
    # cents * n_pos > sum_cents (no float division anywhere)
    def pos_partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch.column("c_acctbal"), 100.0)),
                        pa.int64()).to_numpy()
        pos = cents[cents > 0]
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "s": pa.array([int(pos.sum())], type=pa.int64()),
            "n": pa.array([len(pos)], type=pa.int64()),
        })

    stats = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_acctbal"])
        .map_batches(pos_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["k"],
        [("sum", "s", "s"), ("sum", "n", "n")],
    ).to_pandas()  # single row
    sum_cents, n_pos = int(stats.iloc[0]["s"]), int(stats.iloc[0]["n"])

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation.column("n_nationkey").to_pylist(),
                       nation.column("n_name").to_pylist()))

    # pass 1 — co-partitioned anti-join on custkey: rich customers (facts)
    # against order custkeys (exclusion side)
    def key_cust(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(batch.column("c_acctbal"), 100.0)),
                        pa.int64()).to_numpy()
        nk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        m = cents * n_pos > sum_cents
        n = int(m.sum())
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "c_custkey": pa.array(ck[m], type=pa.int64()),
            "acctbal_cents": pa.array(cents[m], type=pa.int64()),
            "c_nationkey": pa.array(nk[m], type=pa.int64()),
        })

    cutoff_us = int(np.datetime64(Q22_CUTOFF, "us").astype(np.int64))

    def key_orders(batch: pa.Table) -> pa.Table:
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
        recent = batch.column("o_custkey").to_numpy().astype(
            np.int64)[date_us >= cutoff_us]
        ck = np.unique(recent)
        n = len(ck)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "c_custkey": pa.array(ck, type=pa.int64()),
            "acctbal_cents": pa.nulls(n, type=pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
        })

    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal", "c_nationkey"],
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)
    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)

    lonely = hash_exchange(
        cu.union(od), "c_custkey", lambda g: _anti_join(g, "c_custkey"), n_parts,
    )

    agg = grouped_aggregate(
        lonely,
        ["c_nationkey"],
        [("count", None, "numcust"),
         ("sum", "acctbal_cents", "totacctbal_cents")],
    )

    def attach_name(batch: pa.Table) -> pa.Table:
        keys = batch.column("c_nationkey").to_pylist()
        return pa.table({
            "n_name": pa.array([name_of[k] for k in keys], type=pa.string()),
            "numcust": batch.column("numcust"),
            "totacctbal_cents": batch.column("totacctbal_cents"),
        })

    return agg.map_batches(attach_name, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_GLOBAL_SALES_OPPORTUNITY_Q22 = f"""
WITH g AS (
  SELECT CAST(SUM(CASE WHEN cents > 0 THEN cents ELSE 0 END) AS BIGINT) AS s,
         CAST(SUM(CASE WHEN cents > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n
  FROM (SELECT CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents FROM customer)
)
SELECT n.n_name,
       CAST(COUNT(*) AS BIGINT) AS numcust,
       CAST(SUM(CAST(ROUND(c.c_acctbal * 100) AS BIGINT)) AS BIGINT)
         AS totacctbal_cents
FROM customer c
JOIN nation n ON c.c_nationkey = n.n_nationkey, g
WHERE CAST(ROUND(c.c_acctbal * 100) AS BIGINT) * g.n > g.s
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '{Q22_CUTOFF}')
GROUP BY n.n_name
"""


def build_queries_ext61() -> dict:
    return {
        "customer_order_distribution_q13": q_customer_order_distribution_q13,
        "global_sales_opportunity_q22": q_global_sales_opportunity_q22,
    }


def build_oracles_ext61() -> dict:
    return {
        "customer_order_distribution_q13": SQL_CUSTOMER_ORDER_DISTRIBUTION_Q13,
        "global_sales_opportunity_q22": SQL_GLOBAL_SALES_OPPORTUNITY_Q22,
    }
