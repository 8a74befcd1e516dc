"""Round-3 extension operators, batch 63: global-share HAVING and
argmax-with-ties shapes (TPC-H Q11 / Q15 adaptations).

``important_parts_q11`` — parts whose revenue exceeds a multiple of
the AVERAGE part revenue: the HAVING-against-a-global-scalar shape
(scale-free — a fixed global-share threshold sweeps from all-pass to
none-pass as the part count grows).  Per-part revenue flows through
the bounded part-keyed aggregate (part is a dimension); the global
(total, n_parts) pair folds from that same bounded table (one tiny
second aggregate — lineitem is scanned exactly once); the predicate is
the exact integer cross-multiply
``part_rev * n_parts * DEN > NUM * total_rev`` (threshold 5/4 of the
average — the synthetic revenue distribution tops out near 1.8x the
mean, so an integer multiple would select nothing) — no float
division.

``top_supplier_q15`` — the supplier(s) with maximum revenue in a
shipping window, TIES INCLUDED (the reference formulation's view +
``= MAX(...)`` semantics, not top-1).  Per-supplier revenue is a
bounded aggregate; the max + equality filter folds over that bounded
table; supplier names broadcast-attach.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# Q11: a part is "important" if its revenue exceeds NUM/DEN x the
# average per-part revenue.
Q11_NUM, Q11_DEN = 5, 4
# Q15 shipping window.
Q15_LO = "1998-01-01"
Q15_HI = "1998-04-01"


def _rev_partial(key_src: str, key_out: str):
    """Per-batch (key, revenue_micro) extraction shared by both queries."""

    def fn(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch.column(key_src), pa.int64())
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        return pa.table({
            key_out: k,
            "revenue_micro": pa.array(cents * (100 - disc), type=pa.int64()),
        })

    return fn


def q_important_parts_q11(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    per_part = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice", "l_discount"],
        ).map_batches(_rev_partial("l_partkey", "p_partkey"),
                      batch_format="pyarrow", zero_copy_batch=True),
        ["p_partkey"],
        [("sum", "revenue_micro", "revenue_micro")],
    )

    # global total folds from the bounded per-part table (part is a dim,
    # so this second aggregate sees dim-scale rows, not lineitem-scale)
    total = grouped_aggregate(
        per_part.map_batches(
            lambda b: pa.table({
                "k": pa.array([0], type=pa.int64()),
                "t": pa.array([int(b.column("revenue_micro").to_numpy().sum())],
                              type=pa.int64()),
                "n": pa.array([b.num_rows], type=pa.int64()),
            }),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        ["k"], [("sum", "t", "t"), ("sum", "n", "n")],
    ).to_pandas()
    total_rev = int(total.iloc[0]["t"])
    n_parts = int(total.iloc[0]["n"])
    rhs = Q11_NUM * total_rev  # python int: never overflows
    lhs_mult = n_parts * Q11_DEN

    def share_filter(batch: pa.Table) -> pa.Table:
        rev = batch.column("revenue_micro").to_numpy()
        # python-int products: rev * n_parts can exceed int64 at 100-TB scale
        keep = np.fromiter((int(r) * lhs_mult > rhs for r in rev),
                           dtype=bool, count=len(rev))
        return batch.filter(pa.array(keep))

    return per_part.map_batches(share_filter, batch_format="pyarrow",
                                zero_copy_batch=True)


SQL_IMPORTANT_PARTS_Q11 = f"""
WITH pr AS (
  SELECT l_partkey AS p_partkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
              AS BIGINT) AS revenue_micro
  FROM lineitem GROUP BY l_partkey
), g AS (SELECT CAST(SUM(revenue_micro) AS HUGEINT) AS total,
                CAST(COUNT(*) AS HUGEINT) AS n FROM pr)
SELECT pr.p_partkey, pr.revenue_micro
FROM pr, g
WHERE CAST(pr.revenue_micro AS HUGEINT) * g.n * {Q11_DEN} > {Q11_NUM} * g.total
"""


def q_top_supplier_q15(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    lo = int(np.datetime64(Q15_LO, "us").astype(np.int64))
    hi = int(np.datetime64(Q15_HI, "us").astype(np.int64))

    def windowed(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
        m = (ship >= lo) & (ship < hi)
        sub = batch.filter(pa.array(m))
        return _rev_partial("l_suppkey", "s_suppkey")(sub)

    per_supp = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_shipdate", "l_extendedprice",
                     "l_discount"],
        ).map_batches(windowed, batch_format="pyarrow", zero_copy_batch=True),
        ["s_suppkey"],
        [("sum", "revenue_micro", "revenue_micro")],
    ).to_pandas()  # bounded: one row per supplier (dim-scale)

    best = int(per_supp["revenue_micro"].max())
    top = per_supp[per_supp["revenue_micro"] == best].copy()

    supplier = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_name"])
    name_of = dict(zip(supplier.column("s_suppkey").to_pylist(),
                       supplier.column("s_name").to_pylist()))
    top["s_name"] = [name_of[int(k)] for k in top["s_suppkey"]]
    top["s_suppkey"] = top["s_suppkey"].astype("int64")
    top["revenue_micro"] = top["revenue_micro"].astype("int64")
    return top[["s_suppkey", "s_name", "revenue_micro"]].reset_index(drop=True)


SQL_TOP_SUPPLIER_Q15 = f"""
WITH sr AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
              AS BIGINT) AS revenue_micro
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{Q15_LO}'
    AND l_shipdate < TIMESTAMP '{Q15_HI}'
  GROUP BY l_suppkey
)
SELECT sr.s_suppkey, s.s_name, sr.revenue_micro
FROM sr JOIN supplier s ON sr.s_suppkey = s.s_suppkey
WHERE sr.revenue_micro = (SELECT MAX(revenue_micro) FROM sr)
"""


def build_queries_ext63() -> dict:
    return {
        "important_parts_q11": q_important_parts_q11,
        "top_supplier_q15": q_top_supplier_q15,
    }


def build_oracles_ext63() -> dict:
    return {
        "important_parts_q11": SQL_IMPORTANT_PARTS_Q11,
        "top_supplier_q15": SQL_TOP_SUPPLIER_Q15,
    }
