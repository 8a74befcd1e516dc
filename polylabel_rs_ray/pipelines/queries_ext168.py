"""Round-3 extension operators, batch 168: Hodges-Lehmann pair-median +
Wilcoxon signed-rank weekend contrast.

``hodges_lehmann_revenue`` — the robust location estimator over the
daily revenue series: the median of the D(D+1)/2 Walsh sums
``cents_i + cents_j`` (i ≤ j), emitted as the exact integer
``med2w`` = lower + upper middle of the pair-sum multiset (the HL
estimator itself is med2w/4 cents — kept out of the contract so
nothing float crosses the oracle hash).  The oracle MATERIALIZES the
pair multiset (bounded: the daily domain squared) and takes its
doubled interpolated median; the engine never builds a pair: k-th
smallest pair-sum resolves by binary search over the sum domain with
an O(D log D) two-pointer/searchsorted counting oracle — the classic
implicit-selection algorithm, so the two sides share NO algorithmic
structure.  Distributed shape: the daily cents reduce (map-side
combine, bounded day domain) then the log-domain selection fold.

``wilcoxon_signed_rank_weekend`` — the paired-sample rank test on a
per-user contrast: weekend (epoch-day mod 7 ∈ {2,3}, the ext138/150
pinned identity) vs weekday event values.  The paired difference per
user is the CROSS-MULTIPLIED mean difference ``d_u = se·nw − sw·ne``
(exact int64 — sign identical to the mean difference, no division);
zero-difference users drop (the standard Wilcoxon discard rule);
tied |d| get midranks, doubled to stay integral (rank2 = min-rank +
max-rank); the emitted statistics are ``w_plus2 / w_minus2`` = 2·W±,
whose sum is pinned to n(n+1) by construction.  Distributed shape:
per-(user, is_weekend) sums/counts reduce through the map-side
combine; the bounded user table ranks on the driver.  The oracle
replays with window midranks ((RANK + reverse-RANK built from COUNT)
— an independent midrank derivation).

Reference anchors: robust-statistics family (SURVEY.md §2.4);
siblings: value_mad / moods_median_test / kruskal_rank_sums /
quality_auc (rank statistics), daily_revenue_sliding_median (bounded
daily series), weekend_order_premium (the mod-7 weekend identity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WEEKEND_MODS = (2, 3)


# --------------------------------------------------------------------------
# hodges_lehmann_revenue
# --------------------------------------------------------------------------


def _kth_pair_sum(c: np.ndarray, k: int) -> int:
    """k-th smallest (1-based) of the multiset {c[i]+c[j] : i <= j},
    c sorted ascending — binary search on the value domain with a
    two-pointer counting oracle; never materializes a pair."""
    lo, hi = int(2 * c[0]), int(2 * c[-1])

    def count_le(x: int) -> int:
        # pairs i <= j with c[i] + c[j] <= x
        im = np.searchsorted(c, x - c, side="right")
        return int(np.minimum(im, np.arange(1, len(c) + 1)).sum())

    while lo < hi:
        mid = (lo + hi) // 2
        if count_le(mid) >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def q_hodges_lehmann_revenue(sf_dir: str):
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

    daily = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "cents", "cents")],
    ).to_pandas()  # bounded daily series
    c = np.sort(daily["cents"].to_numpy().astype(np.int64))
    D = len(c)
    m = D * (D + 1) // 2
    k1, k2 = (m + 1) // 2, m // 2 + 1
    med2w = _kth_pair_sum(c, k1) + _kth_pair_sum(c, k2)
    return ray.data.from_arrow(pa.table({
        "n_days": pa.array([D], type=pa.int64()),
        "n_pairs": pa.array([m], type=pa.int64()),
        "med2w": pa.array([med2w], type=pa.int64()),
    }))


SQL_HODGES_LEHMANN_REVENUE = """
WITH daily AS MATERIALIZED (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT)
           AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
), pairs AS (
  SELECT a.cents + b.cents AS s
  FROM daily a JOIN daily b ON a.day <= b.day
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM daily) AS n_days,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(ROUND(2 * MEDIAN(s)) AS BIGINT) AS med2w
FROM pairs
"""


# --------------------------------------------------------------------------
# wilcoxon_signed_rank_weekend
# --------------------------------------------------------------------------


def q_wilcoxon_signed_rank_weekend(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        day = ts // 86_400_000_000
        wknd = np.isin(day % 7, WEEKEND_MODS).astype(np.int64)
        cents = np.round(
            batch.column("value").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "is_weekend": pa.array(wknd, type=pa.int64()),
            "one": pa.array(np.ones(len(day), dtype=np.int64)),
            "cents": pa.array(cents, type=pa.int64()),
        })

    per = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts", "value"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "is_weekend"],
        [("sum", "one", "n"), ("sum", "cents", "s")],
    ).to_pandas()  # bounded: 2 rows per user

    piv = per.pivot_table(index="user_id", columns="is_weekend",
                          values=["n", "s"], fill_value=0)
    nw = piv.get(("n", 0), 0)
    ne = piv.get(("n", 1), 0)
    sw = piv.get(("s", 0), 0)
    se = piv.get(("s", 1), 0)
    both = (np.asarray(nw) > 0) & (np.asarray(ne) > 0)
    d = (np.asarray(se, dtype=np.int64) * np.asarray(nw, dtype=np.int64)
         - np.asarray(sw, dtype=np.int64) * np.asarray(ne, dtype=np.int64))
    d = d[both]
    d = d[d != 0]
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    absd_sorted = absd[order]
    n = len(d)
    # doubled midranks: rank2 = min_rank + max_rank over each tie group
    lo = np.searchsorted(absd_sorted, absd, side="left") + 1
    hi = np.searchsorted(absd_sorted, absd, side="right")
    rank2 = lo + hi
    w_plus2 = int(rank2[d > 0].sum())
    w_minus2 = int(rank2[d < 0].sum())
    return ray.data.from_arrow(pa.table({
        "n_used": pa.array([n], type=pa.int64()),
        "w_plus2": pa.array([w_plus2], type=pa.int64()),
        "w_minus2": pa.array([w_minus2], type=pa.int64()),
    }))


SQL_WILCOXON_SIGNED_RANK_WEEKEND = f"""
WITH ev AS MATERIALIZED (
  SELECT user_id,
         CASE WHEN (epoch_us(ts) // 86400000000) % 7
                   IN {WEEKEND_MODS} THEN 1 ELSE 0 END AS wk,
         CAST(ROUND(value * 100) AS BIGINT) AS cents
  FROM events
), agg AS (
  SELECT user_id,
         SUM(CASE WHEN wk = 0 THEN 1 ELSE 0 END) AS nw,
         SUM(CASE WHEN wk = 1 THEN 1 ELSE 0 END) AS ne,
         SUM(CASE WHEN wk = 0 THEN cents ELSE 0 END) AS sw,
         SUM(CASE WHEN wk = 1 THEN cents ELSE 0 END) AS se
  FROM ev GROUP BY 1
), diffs AS (
  SELECT user_id, se * nw - sw * ne AS d
  FROM agg WHERE nw > 0 AND ne > 0 AND se * nw - sw * ne <> 0
), ranked AS (
  SELECT d,
         RANK() OVER (ORDER BY abs(d)) AS lo_rank,
         CAST((SELECT COUNT(*) FROM diffs) AS BIGINT)
           - RANK() OVER (ORDER BY abs(d) DESC) + 1 AS hi_rank
  FROM diffs
)
SELECT CAST((SELECT COUNT(*) FROM diffs) AS BIGINT) AS n_used,
       CAST(COALESCE(SUM(CASE WHEN d > 0
                              THEN lo_rank + hi_rank END), 0) AS BIGINT)
         AS w_plus2,
       CAST(COALESCE(SUM(CASE WHEN d < 0
                              THEN lo_rank + hi_rank END), 0) AS BIGINT)
         AS w_minus2
FROM ranked
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext168():
    return {
        "hodges_lehmann_revenue": q_hodges_lehmann_revenue,
        "wilcoxon_signed_rank_weekend": q_wilcoxon_signed_rank_weekend,
    }


def build_oracles_ext168():
    return {
        "hodges_lehmann_revenue": SQL_HODGES_LEHMANN_REVENUE,
        "wilcoxon_signed_rank_weekend": SQL_WILCOXON_SIGNED_RANK_WEEKEND,
    }
