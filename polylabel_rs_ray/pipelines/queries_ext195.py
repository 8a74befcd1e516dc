"""Round-3 extension operators, batch 195: 1-D two-center split +
geometric interarrival MLE.

``revenue_two_center`` — the exact 1-D 2-center problem over the
distinct daily revenue values: split the sorted values at a cut so
the larger of the two cluster DIAMETERS is minimized (diameters,
i.e. doubled radii, keep everything integer).  The classic fact that
an optimal 2-clustering of 1-D points is a contiguous split makes
the exhaustive cut scan exact; ties go to the smallest cut index.
Emitted: the cut index, both diameters, and the objective.  Engine:
one vectorized suffix/prefix range scan.  Oracle: per-cut window
mins with a ROW_NUMBER pick.

``interarrival_geometric_mle`` — the maximum-likelihood fit of a
geometric distribution to the order-day gaps (gap = days between
consecutive distinct order days, minus one): p̂ = n/(n + Σgaps),
emitted as the EXACT REDUCED fraction (numerator, denominator via
gcd) plus the raw moments — no float parameter crosses the oracle
hash.  Engine: python gcd on the bounded fold; oracle: DuckDB's
native gcd().  The MLE stationarity (p̂ maximizes the closed-form
likelihood over a probe grid) is pytest-pinned with Fractions.

Reference anchors: clustering + statistics families (SURVEY.md
§2.4); siblings: vopt_histogram_dp (1-D partition DP; this is its
k=2 minimax cousin), rice_param_scan (gap-stream modeling),
dbscan_tile_clusters.
"""

from __future__ import annotations

from math import gcd

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _daily_cents(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "cents", "cents")],
    ).to_pandas().sort_values("day")


# --------------------------------------------------------------------------
# revenue_two_center
# --------------------------------------------------------------------------


def q_revenue_two_center(sf_dir: str):
    import ray
    daily = _daily_cents(sf_dir)
    v = np.unique(daily["cents"].to_numpy().astype(np.int64))
    n = len(v)
    # cut c: left cluster v[0..c], right v[c+1..n-1]; diameters
    left = v[:-1] - v[0]                 # diam of v[0..c] for c=0..n-2
    right = v[-1] - v[1:]                # diam of v[c+1..] for c=0..n-2
    obj = np.maximum(left, right)
    c = int(np.argmin(obj))              # argmin ties -> smallest cut
    return ray.data.from_arrow(pa.table({
        "cut_idx": pa.array([c], type=pa.int64()),
        "left_diam": pa.array([int(left[c])], type=pa.int64()),
        "right_diam": pa.array([int(right[c])], type=pa.int64()),
        "objective": pa.array([int(obj[c])], type=pa.int64()),
        "n_values": pa.array([n], type=pa.int64()),
    }))


SQL_REVENUE_TWO_CENTER = """
WITH v AS MATERIALIZED (
  SELECT DISTINCT CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                       AS BIGINT) AS c
  FROM orders GROUP BY CAST(o_orderdate AS DATE)
), ranked AS MATERIALIZED (
  SELECT c, ROW_NUMBER() OVER (ORDER BY c) - 1 AS i,
         (SELECT COUNT(*) FROM v) AS n,
         (SELECT MIN(c) FROM v) AS lo,
         (SELECT MAX(c) FROM v) AS hi
  FROM v
), cuts AS (
  SELECT a.i AS cut_idx,
         a.c - a.lo AS left_diam,
         a.hi - b.c AS right_diam,
         GREATEST(a.c - a.lo, a.hi - b.c) AS objective,
         a.n
  FROM ranked a JOIN ranked b ON b.i = a.i + 1
)
SELECT CAST(cut_idx AS BIGINT) AS cut_idx,
       CAST(left_diam AS BIGINT) AS left_diam,
       CAST(right_diam AS BIGINT) AS right_diam,
       CAST(objective AS BIGINT) AS objective,
       CAST(n AS BIGINT) AS n_values
FROM (SELECT *, ROW_NUMBER() OVER (ORDER BY objective, cut_idx) AS rn
      FROM cuts)
WHERE rn = 1
"""


# --------------------------------------------------------------------------
# interarrival_geometric_mle
# --------------------------------------------------------------------------


def q_interarrival_geometric_mle(sf_dir: str):
    import ray
    daily = _daily_cents(sf_dir)
    days = daily["day"].to_numpy().astype(np.int64)
    gaps = np.diff(days) - 1
    n = len(gaps)
    s = int(gaps.sum())
    g = gcd(n, n + s)
    return ray.data.from_arrow(pa.table({
        "n_gaps": pa.array([n], type=pa.int64()),
        "sum_gaps": pa.array([s], type=pa.int64()),
        "p_num": pa.array([n // g], type=pa.int64()),
        "p_den": pa.array([(n + s) // g], type=pa.int64()),
    }))


SQL_INTERARRIVAL_GEOMETRIC_MLE = """
WITH days AS MATERIALIZED (
  SELECT DISTINCT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01'
                       AS BIGINT) AS day
  FROM orders
), gaps AS MATERIALIZED (
  SELECT day - LAG(day) OVER (ORDER BY day) - 1 AS g FROM days
  QUALIFY g IS NOT NULL
), agg AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(g) AS BIGINT) AS s
  FROM gaps
)
SELECT n AS n_gaps, s AS sum_gaps,
       CAST(n // gcd(n, n + s) AS BIGINT) AS p_num,
       CAST((n + s) // gcd(n, n + s) AS BIGINT) AS p_den
FROM agg
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext195():
    return {
        "revenue_two_center": q_revenue_two_center,
        "interarrival_geometric_mle": q_interarrival_geometric_mle,
    }


def build_oracles_ext195():
    return {
        "revenue_two_center": SQL_REVENUE_TWO_CENTER,
        "interarrival_geometric_mle": SQL_INTERARRIVAL_GEOMETRIC_MLE,
    }
