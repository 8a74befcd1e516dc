"""Round-3 extension operators, batch 108: 3-itemset support + exact Gini.

``basket_triple_support`` — the size-3 extension of the market-basket
family (pairs: ext44 lift, ``part_pair_counts``): support histogram of
3-item SETS across order baskets, set semantics (an order's duplicate
(part) rows collapse first — this data has 57 same-part repeats within
orders at sf0.001, so row semantics would overcount).  Shape: distinct
(order, part) partials combine map-side into ONE orderkey
co-partition; within each partition baskets group by size k and all
C(k,3) index triples generate VECTORIZED per distinct k (per-order
fan-out is tiny, avg basket ~4); triples pack into one int64 key
(3 x 21 bits — fine through ~2M parts, documented bound) and count
through the integer-key hash exchange built for ~unique keys; the
bounded (support -> n_triples) histogram folds map-side.

``customer_order_gini`` — Gini concentration of orders per ordering
customer, EXACT: order counts live on a bounded domain, so the
rank-sum formula evaluates on the count HISTOGRAM — a tie group at
value v with frequency f and cum predecessors contributes
``v * (2*(f*cum + f*(f+1)/2) ...)`` integer terms; G = num/den with
``num = 2*Σ_i i*x_(i) − (n+1)*Σx`` and ``den = n*Σx``.  No global
sort: per-batch count partials -> bounded histogram -> driver fold in
exact ints (the HHI/Lorenz complement to ext101's supplier_hhi).

Reference anchors: engine-level analytics surface (SURVEY.md §2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import hash_exchange

TRIPLE_SHIFT = 21  # partkey < 2^21 per packed component (documented bound)


def q_basket_triple_support(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        return batch.select(["l_orderkey", "l_partkey"]).group_by(
            ["l_orderkey", "l_partkey"]).aggregate([])

    def triples(group: pa.Table) -> pa.Table:
        g = group.group_by(["l_orderkey", "l_partkey"]).aggregate([])
        ok = g.column("l_orderkey").to_numpy().astype(np.int64)
        pk = g.column("l_partkey").to_numpy().astype(np.int64)
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        starts = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
        sizes = np.diff(np.r_[starts, len(ok)])
        out = []
        for k in np.unique(sizes):
            if k < 3:
                continue
            sel = starts[sizes == k]
            # (m, k) basket matrix for this size; parts ascend within rows
            mat = pk[(sel[:, None] + np.arange(k)[None, :])]
            ii, jj, ll = [np.array(x, dtype=np.int64) for x in zip(
                *[(i, j, l) for i in range(k - 2)
                  for j in range(i + 1, k - 1)
                  for l in range(j + 1, k)])]
            packed = ((mat[:, ii].astype(np.int64) << (2 * TRIPLE_SHIFT))
                      | (mat[:, jj].astype(np.int64) << TRIPLE_SHIFT)
                      | mat[:, ll].astype(np.int64))
            out.append(packed.ravel())
        if not out:
            return pa.table({"triple": pa.array([], type=pa.int64()),
                             "one": pa.array([], type=pa.int64())})
        allp = np.concatenate(out)
        return pa.table({
            "triple": pa.array(allp, type=pa.int64()),
            "one": pa.array(np.ones(len(allp), np.int64)),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"],
    ).map_batches(distinct_pairs, batch_format="pyarrow",
                  zero_copy_batch=True)

    supports = grouped_aggregate(
        hash_exchange(ds, "l_orderkey", triples, n_parts),
        ["triple"], [("sum", "one", "support")],
    )  # ~unique triple keys -> integer hash exchange

    def hist_partial(batch: pa.Table) -> pa.Table:
        s = batch.column("support").to_numpy().astype(np.int64)
        u, c = np.unique(s, return_counts=True)
        return pa.table({
            "support": pa.array(u, type=pa.int64()),
            "n_triples": pa.array(c.astype(np.int64), type=pa.int64()),
        })

    return grouped_aggregate(
        supports.map_batches(hist_partial, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["support"], [("sum", "n_triples", "n_triples")],
    ).sort("support")


SQL_BASKET_TRIPLE_SUPPORT = """
WITH dp AS MATERIALIZED (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
),
-- pairs materialized so the c-join keeps l_orderkey as its equi-key:
-- written as one 3-way join, the planner merge-joined b x c on the
-- partkey INEQUALITY alone — a quasi-cross-join (~18e12 rows at sf1)
pairs AS MATERIALIZED (
  SELECT a.l_orderkey AS okey, a.l_partkey pa, b.l_partkey pb
  FROM dp a
  JOIN dp b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
t AS (
  SELECT p.pa, p.pb, c.l_partkey pc
  FROM pairs p
  JOIN dp c ON p.okey = c.l_orderkey AND p.pb < c.l_partkey
),
s AS (SELECT pa, pb, pc, CAST(COUNT(*) AS BIGINT) AS support
      FROM t GROUP BY 1, 2, 3)
SELECT support, CAST(COUNT(*) AS BIGINT) AS n_triples
FROM s GROUP BY support ORDER BY support
"""


def q_customer_order_gini(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def cust_partial(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        u, c = np.unique(ck, return_counts=True)
        return pa.table({
            "o_custkey": pa.array(u, type=pa.int64()),
            "n": pa.array(c.astype(np.int64), type=pa.int64()),
        })

    counts = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey"])
        .map_batches(cust_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["o_custkey"], [("sum", "n", "n")],
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.int64)
        u, c = np.unique(n, return_counts=True)
        return pa.table({
            "v": pa.array(u, type=pa.int64()),
            "f": pa.array(c.astype(np.int64), type=pa.int64()),
        })

    hist = grouped_aggregate(
        counts.map_batches(hist_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["v"], [("sum", "f", "f")],
    ).to_pandas()  # bounded: one row per distinct order count

    hist = hist.sort_values("v").reset_index(drop=True)
    n_tot = int(hist["f"].sum())
    s_tot = int((hist["v"] * hist["f"]).sum())
    cum = 0
    ranksum = 0  # Σ_i i * x_(i), exact over tie groups
    for v, f in zip(hist["v"].astype(int), hist["f"].astype(int)):
        ranksum += v * (f * cum + f * (f + 1) // 2)
        cum += f
    num = 2 * ranksum - (n_tot + 1) * s_tot
    den = n_tot * s_tot
    return pa.table({
        "n_customers": pa.array([n_tot], type=pa.int64()),
        "total_orders": pa.array([s_tot], type=pa.int64()),
        "num": pa.array([num], type=pa.int64()),
        "den": pa.array([den], type=pa.int64()),
        "gini": pa.array([float(num) / float(den)], type=pa.float64()),
    })


SQL_CUSTOMER_ORDER_GINI = """
WITH c AS (
  SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n FROM orders GROUP BY 1
),
h AS (SELECT n AS v, CAST(COUNT(*) AS BIGINT) AS f FROM c GROUP BY 1),
w AS (
  SELECT v, f, SUM(f) OVER (ORDER BY v) - f AS cum FROM h
),
s AS (
  SELECT SUM(f) AS n_tot, SUM(v * f) AS s_tot,
         SUM(v * (f * cum + (f * (f + 1)) // 2)) AS ranksum
  FROM w
)
SELECT CAST(n_tot AS BIGINT) AS n_customers,
       CAST(s_tot AS BIGINT) AS total_orders,
       CAST(2 * ranksum - (n_tot + 1) * s_tot AS BIGINT) AS num,
       CAST(n_tot * s_tot AS BIGINT) AS den,
       CAST(2 * ranksum - (n_tot + 1) * s_tot AS DOUBLE)
         / CAST(n_tot * s_tot AS DOUBLE) AS gini
FROM s
"""


def build_queries_ext108() -> dict:
    return {
        "basket_triple_support": q_basket_triple_support,
        "customer_order_gini": q_customer_order_gini,
    }


def build_oracles_ext108() -> dict:
    return {
        "basket_triple_support": SQL_BASKET_TRIPLE_SUPPORT,
        "customer_order_gini": SQL_CUSTOMER_ORDER_GINI,
    }
