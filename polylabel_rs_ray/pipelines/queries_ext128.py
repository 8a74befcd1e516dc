"""Round-3 extension operators, batch 128: customer part-type
concentration + brand revenue share per part type.

``customer_parttype_hhi`` — per customer, the Herfindahl
concentration of their purchasing across part TYPES as exact integer
numerators: n = lineitems, sumsq = Σ n_t² over the customer's
per-type counts (HHI = sumsq/n², emitted as the two integers so no
float division crosses the oracle boundary), plus the distinct type
count.  Shape: the part TYPE domain (bounded, 150 values) is discovered
distributedly (pipelines/agg.distinct_values), the partkey -> type-class
attach AND the orders FACT attach both go through the broadcast
lookup (pipelines/factjoin.attach_fact_value / attach_order_custkey),
then a (custkey, type-class) hash aggregate whose bounded per-customer
fan-in (≤150 types) collapses map-side before the final per-customer
fold.
Oracle: the same two-level GROUP BY.

``brand_share_by_type`` — per part type: total revenue and the
dominant brand (argmax by revenue, ties to the lexicographically
smallest brand) with its revenue, in the repo's exact integer
cent·percent units (``round(price·100) · (100 − round(disc·100))``).
The partkey -> (type, brand) attach packs both bounded class ids into
one int64 side value through the broadcast fact join; the
(type, brand) aggregate is bounded (150 types × 25 brands); the
argmax is the packed max-key discipline (revenue is non-negative,
brands integer-classed by sorted index so the packed
``rev · B + (B−1−brand_idx)`` max decodes to the tie-correct pick).
Oracle: GROUP BY + QUALIFY ROW_NUMBER.

Reference anchors: TPC-H-adjacent decision-support family (SURVEY.md
§2.4); siblings: supplier_hhi (concentration numerators),
top_supplier_q15 / cheapest_supplier_q2 (packed argmax/argmin),
denormalized_sales (broadcast dims + co-partitioned facts).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc



def _rev_cents_pct(batch: pa.Table) -> np.ndarray:
    """Exact integer cent·percent revenue: round(price·100)·(100−disc%)."""
    price = batch.column("l_extendedprice").to_numpy()
    disc = batch.column("l_discount").to_numpy()
    pc_ = np.round(price * 100.0).astype(np.int64)
    dp = np.round(disc * 100.0).astype(np.int64)
    return pc_ * (100 - dp)


# --------------------------------------------------------------------------
# customer_parttype_hhi
# --------------------------------------------------------------------------


def q_customer_parttype_hhi(sf_dir: str):
    from .agg import distinct_values, grouped_aggregate
    from .factjoin import attach_fact_value, attach_order_custkey

    import ray
    # part TYPE domain is bounded (150 values) and discovered distributedly;
    # the partkey -> type-class attach itself goes through the broadcast
    # fact join (pipelines/factjoin.py)
    types = distinct_values(f"{sf_dir}/part.parquet", "p_type")
    tidx = {t: i for i, t in enumerate(types)}

    def type_cls(arr: np.ndarray) -> np.ndarray:
        return np.fromiter((tidx[t] for t in arr), np.int64, len(arr))

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(batch.column("l_partkey"), pa.int64()),
            "okey": pc.cast(batch.column("l_orderkey"), pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    fact = attach_fact_value(
        sf_dir, "part", "p_partkey", "p_type", ds, ["okey"],
        out_col="t", side_val_fn=type_cls,
    )
    joined = attach_order_custkey(sf_dir, fact, ["t"])

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(batch.num_rows, dtype=np.int64)))

    ct = grouped_aggregate(
        joined.map_batches(ones, batch_format="pyarrow", zero_copy_batch=True),
        ["c", "t"], [("sum", "one", "n")],
    )

    def fold(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.int64)
        return pa.table({
            "c_custkey": batch.column("c"),
            "n_items": pa.array(n, type=pa.int64()),
            "sumsq": pa.array(n * n, type=pa.int64()),
            "n_types": pa.array(np.ones(len(n), dtype=np.int64)),
        })

    # customer-grain final fold (~150k keys at sf1)
    return grouped_aggregate(
        ct.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True),
        ["c_custkey"],
        [("sum", "n_items", "n_items"), ("sum", "sumsq", "sumsq"),
         ("sum", "n_types", "n_types")],
    )


SQL_CUSTOMER_PARTTYPE_HHI = """
WITH ct AS (
  SELECT o.o_custkey AS c_custkey, p.p_type,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1, 2
)
SELECT c_custkey,
       CAST(SUM(n) AS BIGINT) AS n_items,
       CAST(SUM(n * n) AS BIGINT) AS sumsq,
       CAST(COUNT(*) AS BIGINT) AS n_types
FROM ct GROUP BY c_custkey
"""


# --------------------------------------------------------------------------
# brand_share_by_type
# --------------------------------------------------------------------------


def q_brand_share_by_type(sf_dir: str):
    from .agg import distinct_values, grouped_aggregate
    from .factjoin import attach_fact_value

    import ray
    # bounded domains (150 types x 25 brands) discovered distributedly;
    # the part attach (pipelines/factjoin.py) packs both class ids into
    # ONE int64 side value (tc * B + bc)
    types = distinct_values(f"{sf_dir}/part.parquet", "p_type")
    brands = distinct_values(f"{sf_dir}/part.parquet", "p_brand")
    tidx = {t: i for i, t in enumerate(types)}
    bidx = {b: i for i, b in enumerate(brands)}
    B = len(brands)

    def pack_type_brand(cols: dict) -> np.ndarray:
        tc = np.fromiter((tidx[t] for t in cols["p_type"]), np.int64,
                         len(cols["p_type"]))
        bc = np.fromiter((bidx[b] for b in cols["p_brand"]), np.int64,
                         len(cols["p_brand"]))
        return tc * B + bc

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(batch.column("l_partkey"), pa.int64()),
            "rev": pa.array(_rev_cents_pct(batch), type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    attached = attach_fact_value(
        sf_dir, "part", "p_partkey", ["p_type", "p_brand"], ds, ["rev"],
        out_col="tb", side_val_fn=pack_type_brand,
    )

    def unpack(batch: pa.Table) -> pa.Table:
        tb_ = batch.column("tb").to_numpy().astype(np.int64)
        return pa.table({
            "t": pa.array(tb_ // B, type=pa.int64()),
            "b": pa.array(tb_ % B, type=pa.int64()),
            "rev": batch.column("rev"),
        })

    tb = grouped_aggregate(
        attached.map_batches(unpack, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["t", "b"], [("sum", "rev", "rev")],
    )

    def pack(batch: pa.Table) -> pa.Table:
        rev = batch.column("rev").to_numpy().astype(np.int64)
        b = batch.column("b").to_numpy().astype(np.int64)
        return pa.table({
            "t": batch.column("t"),
            "total_rev": pa.array(rev, type=pa.int64()),
            "packed": pa.array(rev * B + (B - 1 - b), type=pa.int64()),
        })

    best = grouped_aggregate(
        tb.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True),
        ["t"], [("sum", "total_rev", "total_rev"), ("max", "packed", "best")],
    )

    type_arr = pa.array(types, type=pa.string())
    brand_arr = pa.array(brands, type=pa.string())

    def decode(batch: pa.Table) -> pa.Table:
        t = batch.column("t").to_numpy().astype(np.int64)
        best_ = batch.column("best").to_numpy().astype(np.int64)
        return pa.table({
            "p_type": type_arr.take(pa.array(t)),
            "total_rev": batch.column("total_rev"),
            "top_brand": brand_arr.take(pa.array(B - 1 - (best_ % B))),
            "top_rev": pa.array(best_ // B, type=pa.int64()),
        })

    return best.map_batches(decode, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_BRAND_SHARE_BY_TYPE = """
WITH tb AS (
  SELECT p.p_type, p.p_brand,
         CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
              AS BIGINT) AS rev
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1, 2
)
SELECT p_type,
       CAST(SUM(rev) OVER (PARTITION BY p_type) AS BIGINT) AS total_rev,
       p_brand AS top_brand,
       rev AS top_rev
FROM tb
QUALIFY ROW_NUMBER() OVER (PARTITION BY p_type
                           ORDER BY rev DESC, p_brand ASC) = 1
"""


def build_queries_ext128() -> dict:
    return {
        "customer_parttype_hhi": q_customer_parttype_hhi,
        "brand_share_by_type": q_brand_share_by_type,
    }


def build_oracles_ext128() -> dict:
    return {
        "customer_parttype_hhi": SQL_CUSTOMER_PARTTYPE_HHI,
        "brand_share_by_type": SQL_BRAND_SHARE_BY_TYPE,
    }
