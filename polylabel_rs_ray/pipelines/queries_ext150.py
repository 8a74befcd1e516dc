"""Round-3 extension operators, batch 150: weekend order premium.

``weekend_order_premium`` — the two-class pricing contrast: order
count and exact revenue cents for weekend vs weekday orders (epoch-
day mod-7 ∈ {2,3} = Sat/Sun, the ext138-pinned identity), emitted as
the two class rows with exact integer sums so the premium ratio is a
downstream rational.  One bounded aggregate.

Reference anchors: calendar family (SURVEY.md §2.4); sibling:
weekend_share_histogram (calendar identity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


# --------------------------------------------------------------------------
# weekend_order_premium
# --------------------------------------------------------------------------


def q_weekend_order_premium(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderdate", "o_totalprice"])

    def stage(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy() \
            // DAY_US
        wknd = np.isin(day % 7, (2, 3)).astype(np.int64)
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "is_weekend": pa.array(wknd, type=pa.int64()),
            "one": pa.array(np.ones(len(day), dtype=np.int64)),
            "rev": pa.array(cents, type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["is_weekend"],
        [("sum", "one", "n_orders"), ("sum", "rev", "rev_cents")],
    )


SQL_WEEKEND_ORDER_PREMIUM = f"""
SELECT CAST(CASE WHEN (epoch_us(o_orderdate) // {DAY_US}) % 7 IN (2, 3)
            THEN 1 ELSE 0 END AS BIGINT) AS is_weekend,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS rev_cents
FROM orders GROUP BY 1
"""


def build_queries_ext150() -> dict:
    return {
        "weekend_order_premium": q_weekend_order_premium,
    }


def build_oracles_ext150() -> dict:
    return {
        "weekend_order_premium": SQL_WEEKEND_ORDER_PREMIUM,
    }
