"""Round-3 extension operators, batch 136: day rank within month +
Mood's median two-sample test.

``day_rank_in_month`` — the windowed-rank shape over the bounded
calendar domain: every observed order day ranked within its calendar
month by daily revenue (standard competition RANK, ties share the
rank; revenue in exact cents so tie groups are engine-neutral).
The daily histogram is bounded (observed days) via the map-side
combine; the per-month rank fold is one vectorized driver pass —
no global sort of the fact table.  Oracle: RANK() OVER (PARTITION BY
month ORDER BY rev DESC).

``moods_median_test`` — Mood's median test between the SUPPLIER and
CUSTOMER account-balance populations: the pooled lower median
(cents-quantized, the (n−1)//2 order statistic) and the exact 2×2
contingency counts (population × above/not-above the pooled median).
Both populations' cents histograms are bounded by their value ranges;
the pooled median comes from merging the two histograms on the driver
(constant-size), never from a global sort.  Oracle: UNION ALL + the
ROW_NUMBER median idiom.

Reference anchors: window + two-sample-test families (SURVEY.md
§2.4); siblings: priority_rank (windowed rank), anomalous_days
(median idiom), doclen_ks_test / value_drift_bins (two-sample tests).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


# --------------------------------------------------------------------------
# day_rank_in_month
# --------------------------------------------------------------------------


def q_day_rank_in_month(sf_dir: str):
    from .queries_ext133 import _daily_order_revenue

    import ray
    days, rev = _daily_order_revenue(sf_dir)
    # calendar month via numpy datetime64 (== date_trunc('month'))
    dt = (days * 86_400_000_000).astype("datetime64[us]")
    month = dt.astype("datetime64[M]").astype(np.int64)  # months since epoch

    out_day, out_month, out_rev, out_rank = [], [], [], []
    for m in np.unique(month):
        sel = month == m
        d, r = days[sel], rev[sel]
        # standard competition rank by revenue desc: 1 + #(strictly greater)
        rank = 1 + (r[None, :] > r[:, None]).sum(axis=1)
        out_day.extend(d.tolist())
        out_month.extend([int(m)] * len(d))
        out_rev.extend(r.tolist())
        out_rank.extend(rank.astype(np.int64).tolist())
    return ray.data.from_arrow(pa.table({
        "day": pa.array(out_day, type=pa.int64()),
        "month_idx": pa.array(out_month, type=pa.int64()),
        "rev_cents": pa.array(out_rev, type=pa.int64()),
        "rev_rank": pa.array(out_rank, type=pa.int64()),
    }))


SQL_DAY_RANK_IN_MONTH = f"""
WITH daily AS (
  SELECT epoch_us(o_orderdate) // {DAY_US} AS day,
         date_trunc('month', MIN(o_orderdate)) AS mon,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS rev
  FROM orders GROUP BY 1
)
SELECT day,
       CAST(12 * (EXTRACT(year FROM mon) - 1970)
            + EXTRACT(month FROM mon) - 1 AS BIGINT) AS month_idx,
       rev AS rev_cents,
       CAST(RANK() OVER (PARTITION BY mon ORDER BY rev DESC) AS BIGINT)
           AS rev_rank
FROM daily
"""


# --------------------------------------------------------------------------
# moods_median_test
# --------------------------------------------------------------------------


def q_moods_median_test(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def hist_of(table: str, col: str):
        ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                   columns=[col])

        def cents(batch: pa.Table) -> pa.Table:
            v = np.round(batch.column(col).to_numpy() * 100.0).astype(
                np.int64)
            t = pa.table({"c": pa.array(v, type=pa.int64())})
            out = t.group_by(["c"]).aggregate([("c", "count")])
            return pa.table({
                "c": out.column("c"),
                "n": pc.cast(out.column("c_count"), pa.int64()),
            })

        return grouped_aggregate(
            ds.map_batches(cents, batch_format="pyarrow",
                           zero_copy_batch=True),
            ["c"], [("sum", "n", "n")],
        ).to_pandas().sort_values("c")  # bounded: cents domain

    hs = hist_of("supplier", "s_acctbal")
    hc = hist_of("customer", "c_acctbal")

    # pooled lower median from the merged histograms (driver, bounded)
    import pandas as pd
    pooled = (pd.concat([hs, hc]).groupby("c")["n"].sum()
                .sort_index())
    cum = pooled.cumsum().to_numpy()
    total = int(cum[-1])
    med_idx = (total - 1) // 2
    med = int(pooled.index.to_numpy()[np.searchsorted(cum, med_idx + 1)])

    def split(h):
        c = h["c"].to_numpy().astype(np.int64)
        n = h["n"].to_numpy().astype(np.int64)
        above = int(n[c > med].sum())
        return above, int(n.sum()) - above

    sa, sb = split(hs)
    ca, cb = split(hc)
    return ray.data.from_arrow(pa.table({
        "population": pa.array(["customer", "supplier"], type=pa.string()),
        "n_above": pa.array([ca, sa], type=pa.int64()),
        "n_not_above": pa.array([cb, sb], type=pa.int64()),
        "pooled_median_cents": pa.array([med, med], type=pa.int64()),
    }))


SQL_MOODS_MEDIAN_TEST = """
WITH pool AS (
  SELECT 'supplier' AS population,
         CAST(ROUND(s_acctbal * 100) AS BIGINT) AS c
  FROM supplier
  UNION ALL
  SELECT 'customer', CAST(ROUND(c_acctbal * 100) AS BIGINT) FROM customer
), med AS (
  SELECT c AS m FROM (
    SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn, COUNT(*) OVER () AS d
    FROM pool
  ) WHERE rn = (d + 1) // 2
)
SELECT population,
       CAST(SUM(CASE WHEN c > (SELECT m FROM med) THEN 1 ELSE 0 END)
            AS BIGINT) AS n_above,
       CAST(SUM(CASE WHEN c > (SELECT m FROM med) THEN 0 ELSE 1 END)
            AS BIGINT) AS n_not_above,
       CAST((SELECT m FROM med) AS BIGINT) AS pooled_median_cents
FROM pool GROUP BY population
"""


def build_queries_ext136() -> dict:
    return {
        "day_rank_in_month": q_day_rank_in_month,
        "moods_median_test": q_moods_median_test,
    }


def build_oracles_ext136() -> dict:
    return {
        "day_rank_in_month": SQL_DAY_RANK_IN_MONTH,
        "moods_median_test": SQL_MOODS_MEDIAN_TEST,
    }
