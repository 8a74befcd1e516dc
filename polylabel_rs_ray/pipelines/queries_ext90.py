"""Round-3 extension operators, batch 90: calendar-month bucketing and
hexagonal ring smoothing.

``monthly_revenue`` — calendar-aware time bucketing: every other time
rollup here uses fixed-width epoch arithmetic (day/week/hour), but
months have variable length, so the bucket comes from numpy's
calendar-aware ``datetime64[M]`` truncation — which matches SQL
``date_trunc('month', ...)`` exactly.  Output keyed by the month's
first-day epoch microseconds; exact integer cents.

``hex_ring_smooth`` — neighborhood aggregation on the HEXAGONAL
lattice (the hex complement to the square tile_heat_smooth): per
occupied hex cell, the count plus the summed counts of its 1-ring —
the six axial neighbors, offsets exact integers — computed against
the broadcast bounded cell histogram.  The SQL oracle self-joins on
the same six offsets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

HEX_NEIGHBORS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def q_monthly_revenue(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def monthly(batch: pa.Table) -> pa.Table:
        ts = batch.column("o_orderdate").to_numpy().astype("datetime64[us]")
        month_start = ts.astype("datetime64[M]").astype("datetime64[us]")
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64()).to_numpy()
        t = pa.table({
            "month_us": pa.array(month_start.astype(np.int64),
                                 type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })
        out = t.group_by(["month_us"]).aggregate([("cents", "sum")])
        return pa.table({
            "month_us": out.column("month_us"),
            "revenue_cents": pc.cast(out.column("cents_sum"), pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderdate", "o_totalprice"])
        .map_batches(monthly, batch_format="pyarrow", zero_copy_batch=True),
        ["month_us"], [("sum", "revenue_cents", "revenue_cents")],
    )


SQL_MONTHLY_REVENUE = """
SELECT CAST(epoch_us(date_trunc('month', o_orderdate)) AS BIGINT)
         AS month_us,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM orders GROUP BY 1
"""


def q_hex_ring_smooth(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled
    from .queries_ext65 import _hex_axial

    # bounded hex histogram (same binning as hex_bins), broadcast for the
    # ring lookup
    def bin_stage(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        q, r = _hex_axial(x, y)
        return pa.table({
            "hex_q": pa.array(q, type=pa.int64()),
            "hex_r": pa.array(r, type=pa.int64()),
        })

    hist = grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(bin_stage, batch_format="pyarrow",
                                            zero_copy_batch=True),
        ["hex_q", "hex_r"], [("count", None, "n_points")],
    ).to_pandas()  # bounded: occupied hex cells

    import pandas as pd

    n_of = {(int(r.hex_q), int(r.hex_r)): int(r.n_points)
            for r in hist.itertuples()}
    rows = []
    for (q, r), n in n_of.items():
        ring = sum(n_of.get((q + dq, r + dr), 0)
                   for dq, dr in HEX_NEIGHBORS)
        rows.append({"hex_q": q, "hex_r": r, "n_points": n,
                     "ring_sum": n + ring})
    out = pd.DataFrame(rows).sort_values(["hex_q", "hex_r"]).reset_index(
        drop=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _sql_hex_ring_smooth() -> str:
    from .queries_ext65 import _sql_hex_bins

    offsets = ", ".join(f"({dq}, {dr})" for dq, dr in HEX_NEIGHBORS)
    return f"""
        WITH cells AS ({_sql_hex_bins()}),
        ring AS (
          SELECT c.hex_q, c.hex_r, c.n_points,
                 c.n_points + COALESCE(SUM(nb.n_points), 0) AS ring_sum
          FROM cells c
          LEFT JOIN (VALUES {offsets}) AS o(dq, dr) ON TRUE
          LEFT JOIN cells nb
            ON nb.hex_q = c.hex_q + o.dq AND nb.hex_r = c.hex_r + o.dr
          GROUP BY c.hex_q, c.hex_r, c.n_points
        )
        SELECT hex_q, hex_r,
               CAST(n_points AS BIGINT) AS n_points,
               CAST(ring_sum AS BIGINT) AS ring_sum
        FROM ring
    """


def build_queries_ext90() -> dict:
    return {
        "monthly_revenue": q_monthly_revenue,
        "hex_ring_smooth": q_hex_ring_smooth,
    }


def build_oracles_ext90() -> dict:
    return {
        "monthly_revenue": SQL_MONTHLY_REVENUE,
        "hex_ring_smooth": _sql_hex_ring_smooth(),
    }
