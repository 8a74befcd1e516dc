"""Round-3 extension operators, batch 59: compound-predicate dim join.

``discount_revenue_q19`` — the TPC-H Q19 shape: revenue over lineitem
joined to part under a DISJUNCTION of compound (dim-attribute x
fact-attribute) predicates — the pattern that exercises predicate
pushdown across a broadcast join (each OR-branch mixes part.brand/size/
type with lineitem.quantity, so neither side can filter alone).

Engine shape: the bounded part dimension broadcasts once (three
attribute arrays indexed by sorted partkey); each batch evaluates the
whole disjunction as vectorized numpy masks; revenue is the exact
integer micro-revenue ``cents * (100 - disc_pct)`` summed through a
single-row map-side-combined aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def q_discount_revenue_q19(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_type", "p_size"]
    )
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    order = np.argsort(pk)
    pk = pk[order]
    brand = np.array(part.column("p_brand").to_pylist(), dtype=object)[order]
    ptype = np.array(part.column("p_type").to_pylist(), dtype=object)[order]
    size = part.column("p_size").to_numpy().astype(np.int64)[order]

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        qty = pc.cast(pc.round(batch.column("l_quantity")), pa.int64()).to_numpy()
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        idx = np.searchsorted(pk, lpk)
        b = brand[idx]
        t = ptype[idx]
        s = size[idx]
        m1 = (b == "Brand#13") & (s >= 1) & (s <= 15) & (qty >= 1) & (qty <= 20)
        m2 = (b == "Brand#5") & (s >= 10) & (s <= 30) & (qty >= 10) & (qty <= 40)
        m3 = (t == "PROMO") & (s >= 20) & (qty >= 25)
        m = m1 | m2 | m3
        rev = cents * (100 - disc)
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n_rows": pa.array([int(m.sum())], type=pa.int64()),
            "revenue_micro": pa.array([int(rev[m].sum())], type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["k"],
        [("sum", "n_rows", "n_rows"), ("sum", "revenue_micro", "revenue_micro")],
    ).select_columns(["n_rows", "revenue_micro"])


SQL_DISCOUNT_REVENUE_Q19 = """
WITH j AS (
  SELECT CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev,
         CAST(ROUND(l.l_quantity) AS BIGINT) AS qty,
         p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS s
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COALESCE(SUM(rev), 0) AS BIGINT) AS revenue_micro
FROM j
WHERE (p_brand = 'Brand#13' AND s BETWEEN 1 AND 15 AND qty BETWEEN 1 AND 20)
   OR (p_brand = 'Brand#5' AND s BETWEEN 10 AND 30 AND qty BETWEEN 10 AND 40)
   OR (p_type = 'PROMO' AND s >= 20 AND qty >= 25)
"""


def build_queries_ext59() -> dict:
    return {"discount_revenue_q19": q_discount_revenue_q19}


def build_oracles_ext59() -> dict:
    return {"discount_revenue_q19": SQL_DISCOUNT_REVENUE_Q19}
