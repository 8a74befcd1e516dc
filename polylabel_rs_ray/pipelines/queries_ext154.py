"""Round-3 extension operators, batch 154: customer-cohort LTV triangle.

``order_cohort_ltv`` — the classic LTV triangle: orders bucketed by the
customer's acquisition month (calendar month of their first order,
months-since-epoch ints via ``datetime64[M]`` == SQL EXTRACT arithmetic)
and the month offset since acquisition, with exact cent revenue.  Pass 1
reduces per-customer first-month (hash aggregate); the bounded
(custkey → cohort) map is broadcast via ``ray.put`` (small side; the
10^12-row path co-partitions both sides on custkey hash); pass 2 is one
map-side-combined aggregate into the bounded (cohort × offset) triangle.

Reference anchors: calendar family (SURVEY.md §2.4); sibling:
cohort_retention (events cohorts).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# order_cohort_ltv
# --------------------------------------------------------------------------


def q_order_cohort_ltv(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    path = f"{sf_dir}/orders.parquet"
    ds = ray.data.read_parquet(path, columns=["o_custkey", "o_orderdate",
                                              "o_totalprice"])

    def months(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy() \
            .astype("datetime64[us]")
        m = ts.astype("datetime64[M]").astype(np.int64)
        return pa.table({
            "custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
            "m": pa.array(m, type=pa.int64()),
            "cents": pa.array(
                np.round(batch.column("o_totalprice").to_numpy() * 100.0)
                .astype(np.int64), type=pa.int64()),
        })

    om = ds.map_batches(months, batch_format="pyarrow", zero_copy_batch=True)

    coh = grouped_aggregate(
        om.select_columns(["custkey", "m"]),
        ["custkey"], [("min", "m", "cm")],
    ).to_pandas().sort_values("custkey")  # small side; broadcast below
    ck = coh["custkey"].to_numpy().astype(np.int64)
    cm = coh["cm"].to_numpy().astype(np.int64)
    coh_ref = ray.put((ck, cm))

    def attach(batch: pa.Table) -> pa.Table:
        k, c = ray.get(coh_ref)
        cust = batch.column("custkey").to_numpy().astype(np.int64)
        cohort = c[np.searchsorted(k, cust)]
        m = batch.column("m").to_numpy().astype(np.int64)
        t = pa.table({
            "cohort_month": pa.array(cohort, type=pa.int64()),
            "month_offset": pa.array(m - cohort, type=pa.int64()),
            "one": pa.array(np.ones(len(m), dtype=np.int64)),
            "cents": batch.column("cents"),
        })
        out = t.group_by(["cohort_month", "month_offset"]).aggregate(
            [("one", "sum"), ("cents", "sum")])
        return pa.table({
            "cohort_month": out.column("cohort_month"),
            "month_offset": out.column("month_offset"),
            "n": pc.cast(out.column("one_sum"), pa.int64()),
            "rev": pc.cast(out.column("cents_sum"), pa.int64()),
        })

    return grouped_aggregate(
        om.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True),
        ["cohort_month", "month_offset"],
        [("sum", "n", "n_orders"), ("sum", "rev", "rev_cents")],
    )


SQL_ORDER_COHORT_LTV = """
WITH om AS (
    SELECT o_custkey,
           (EXTRACT(year FROM o_orderdate) - 1970) * 12
               + EXTRACT(month FROM o_orderdate) - 1 AS m,
           CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
    FROM orders
),
coh AS (SELECT o_custkey, MIN(m) AS cm FROM om GROUP BY 1)
SELECT CAST(coh.cm AS BIGINT) AS cohort_month,
       CAST(om.m - coh.cm AS BIGINT) AS month_offset,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(om.cents) AS BIGINT) AS rev_cents
FROM om JOIN coh USING (o_custkey)
GROUP BY 1, 2
"""


def build_queries_ext154() -> dict:
    return {
        "order_cohort_ltv": q_order_cohort_ltv,
    }


def build_oracles_ext154() -> dict:
    return {
        "order_cohort_ltv": SQL_ORDER_COHORT_LTV,
    }
