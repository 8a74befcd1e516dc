"""Round-3 extension operators, batch 137: part VWAP rationals +
linenumber density audit.

``part_vwap`` — the volume-weighted average price per part as EXACT
integer rationals: ``vwap_num = Σ round(price·100)·qty`` and
``vwap_den = Σ qty`` (quantities are integral doubles; the division
never happens engine-side, the repo's rational-output discipline for
cross-engine float safety), plus the lineitem count.  One integer-key
hash exchange (``grouped_aggregate``).

``linenumber_density_audit`` — the data-quality contract "line
numbers within an order are dense 1..n": per order, n_lines vs
max(l_linenumber) and min(l_linenumber), rolled up to ONE summary row
(orders, dense orders, gapped orders, min-not-one orders) so the
audit is non-degenerate even when the contract universally holds.
Orderkey hash aggregate with min/max/count partials through the
map-side combine.  Oracle: the same per-order rollup.

Reference anchors: decision-support + data-quality families
(SURVEY.md §2.4); siblings: weighted_median_price (weighted price
statistics), pmi_bigrams / ols_price_model (exact-rational outputs),
fd_violation_audit / candidate_key_audit (contract audits).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# part_vwap
# --------------------------------------------------------------------------


def q_part_vwap(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_quantity"])

    def stage(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch.column("l_extendedprice").to_numpy() * 100.0).astype(
            np.int64)
        qty = batch.column("l_quantity").to_numpy().astype(np.int64)
        return pa.table({
            "p_partkey": batch.column("l_partkey"),
            "vwap_num": pa.array(cents * qty, type=pa.int64()),
            "vwap_den": pa.array(qty, type=pa.int64()),
            "one": pa.array(np.ones(len(qty), dtype=np.int64)),
        })

    return grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["p_partkey"],
        [("sum", "vwap_num", "vwap_num"), ("sum", "vwap_den", "vwap_den"),
         ("sum", "one", "n_lines")],
    )


SQL_PART_VWAP = """
SELECT l_partkey AS p_partkey,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * CAST(l_quantity AS BIGINT)) AS BIGINT) AS vwap_num,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS vwap_den,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem GROUP BY l_partkey
"""


# --------------------------------------------------------------------------
# linenumber_density_audit
# --------------------------------------------------------------------------


def q_linenumber_density_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_linenumber"])

    def stage(batch: pa.Table) -> pa.Table:
        ln = pc.cast(batch.column("l_linenumber"), pa.int64())
        return pa.table({
            "k": batch.column("l_orderkey"),
            "ln_max": ln,
            "ln_min": ln,
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    per_order = grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["k"],
        [("max", "ln_max", "ln_max"), ("min", "ln_min", "ln_min"),
         ("sum", "one", "n_lines")],
    )

    def classify(batch: pa.Table) -> pa.Table:
        mx = batch.column("ln_max").to_numpy().astype(np.int64)
        mn = batch.column("ln_min").to_numpy().astype(np.int64)
        n = batch.column("n_lines").to_numpy().astype(np.int64)
        dense = (mn == 1) & (mx == n)
        return pa.table({
            "g": pa.array(np.zeros(len(n), dtype=np.int64)),
            "n_orders": pa.array(np.ones(len(n), dtype=np.int64)),
            "n_dense": pa.array(dense.astype(np.int64)),
            "n_gapped": pa.array(((mx != n)).astype(np.int64)),
            "n_min_not_one": pa.array((mn != 1).astype(np.int64)),
        })

    agg = grouped_aggregate(
        per_order.map_batches(classify, batch_format="pyarrow",
                              zero_copy_batch=True),
        ["g"],
        [("sum", "n_orders", "n_orders"), ("sum", "n_dense", "n_dense"),
         ("sum", "n_gapped", "n_gapped"),
         ("sum", "n_min_not_one", "n_min_not_one")],
    )
    return agg.drop_columns(["g"])


SQL_LINENUMBER_DENSITY_AUDIT = """
WITH per AS (
  SELECT l_orderkey,
         MAX(l_linenumber) AS mx, MIN(l_linenumber) AS mn,
         COUNT(*) AS n
  FROM lineitem GROUP BY l_orderkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CASE WHEN mn = 1 AND mx = n THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dense,
       CAST(SUM(CASE WHEN mx <> n THEN 1 ELSE 0 END) AS BIGINT)
           AS n_gapped,
       CAST(SUM(CASE WHEN mn <> 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_min_not_one
FROM per
"""


def build_queries_ext137() -> dict:
    return {
        "part_vwap": q_part_vwap,
        "linenumber_density_audit": q_linenumber_density_audit,
    }


def build_oracles_ext137() -> dict:
    return {
        "part_vwap": SQL_PART_VWAP,
        "linenumber_density_audit": SQL_LINENUMBER_DENSITY_AUDIT,
    }
