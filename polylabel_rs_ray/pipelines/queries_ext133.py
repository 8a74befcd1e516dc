"""Round-3 extension operators, batch 133: best revenue window (Kadane)
+ maximum drawdown — exact integer time-series audits.

``max_revenue_window`` — the maximum-sum contiguous window of daily
order revenue RELATIVE to the period average, kept exact by the CUSUM
scaling trick: with D observed days, total T cents and daily r_d, the
deviation ``dev_d = D·r_d − T`` is an exact int64 (no float mean),
and the best window maximizes ``Σ dev`` (ties: smallest start day,
then smallest end day — a fully deterministic argmax).  The daily
histogram is bounded (observed o_orderdate days) via the map-side
combine; the window argmax is one vectorized driver fold over the
O(D²) prefix-difference matrix (D ≈ thousands — bounded by calendar
span, not row count).  Oracle: prefix-sum self-join with the same
ORDER BY tie rule.

``revenue_drawdown`` — the maximum peak-to-trough drawdown of the
cumulative daily revenue curve: ``dd_d = max_{e≤d} cum_e − cum_d``,
reporting the max drawdown (exact cents), the earliest trough day
attaining it and that trough's running-peak value.  Same bounded
histogram; prefix cummax on the driver.  Oracle: window MAX OVER
(ROWS UNBOUNDED PRECEDING) + the earliest-trough tie rule.

Reference anchors: time-series analytics family (SURVEY.md §2.4);
siblings: daily_cusum_changepoint (the D-scaling integer trick),
order_backlog_sim (prefix-scan identities), anomalous_days.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


def _daily_order_revenue(sf_dir: str):
    """Bounded (day, revenue-cents) table via map-side combine."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderdate", "o_totalprice"])

    def daily(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy() \
            // DAY_US
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        t = pa.table({
            "day": pa.array(day, type=pa.int64()),
            "rev": pa.array(cents, type=pa.int64()),
        })
        out = t.group_by(["day"]).aggregate([("rev", "sum")])
        return pa.table({
            "day": out.column("day"),
            "rev": pc.cast(out.column("rev_sum"), pa.int64()),
        })

    h = grouped_aggregate(
        ds.map_batches(daily, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "rev", "rev")],
    ).to_pandas().sort_values("day")  # bounded: observed calendar days
    return (h["day"].to_numpy().astype(np.int64),
            h["rev"].to_numpy().astype(np.int64))


# --------------------------------------------------------------------------
# max_revenue_window
# --------------------------------------------------------------------------


def q_max_revenue_window(sf_dir: str):
    import ray
    days, rev = _daily_order_revenue(sf_dir)
    D = len(days)
    T = int(rev.sum())
    dev = D * rev - T
    S = np.concatenate([[0], np.cumsum(dev)])  # S[k] = Σ dev[:k]
    # window [i, j] (0-based, inclusive) sum = S[j+1] - S[i]
    diff = S[1:][None, :] - S[:-1][:, None]     # (start i, end j)
    diff = np.where(np.triu(np.ones((D, D), dtype=bool)), diff,
                    np.iinfo(np.int64).min)
    best = int(diff.max())
    # deterministic tie rule: smallest start, then smallest end
    starts, ends = np.nonzero(diff == best)
    k = np.lexsort((ends, starts))[0]
    i, j = int(starts[k]), int(ends[k])
    return ray.data.from_arrow(pa.table({
        "best_dev_sum": pa.array([best], type=pa.int64()),
        "start_day": pa.array([int(days[i])], type=pa.int64()),
        "end_day": pa.array([int(days[j])], type=pa.int64()),
        "window_rev": pa.array([int(rev[i:j + 1].sum())], type=pa.int64()),
        "n_days": pa.array([D], type=pa.int64()),
    }))


SQL_MAX_REVENUE_WINDOW = f"""
WITH daily AS (
  SELECT epoch_us(o_orderdate) // {DAY_US} AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS rev
  FROM orders GROUP BY 1
), params AS (
  SELECT COUNT(*) AS d, SUM(rev) AS t FROM daily
), dev AS (
  SELECT day, rev,
         (SELECT d FROM params) * rev - (SELECT t FROM params) AS dv,
         ROW_NUMBER() OVER (ORDER BY day) AS rn
  FROM daily
), pref AS (
  SELECT rn, day, rev,
         SUM(dv) OVER (ORDER BY rn ROWS UNBOUNDED PRECEDING) AS s,
         SUM(rev) OVER (ORDER BY rn ROWS UNBOUNDED PRECEDING) AS rs
  FROM dev
), wins AS (
  SELECT a.day AS start_day, b.day AS end_day,
         b.s - COALESCE(p.s, 0) AS dev_sum,
         b.rs - COALESCE(p.rs, 0) AS window_rev
  FROM pref a
  JOIN pref b ON b.rn >= a.rn
  LEFT JOIN pref p ON p.rn = a.rn - 1
)
SELECT CAST(dev_sum AS BIGINT) AS best_dev_sum,
       start_day, end_day,
       CAST(window_rev AS BIGINT) AS window_rev,
       CAST((SELECT d FROM params) AS BIGINT) AS n_days
FROM wins
ORDER BY dev_sum DESC, start_day ASC, end_day ASC
LIMIT 1
"""


# --------------------------------------------------------------------------
# revenue_drawdown
# --------------------------------------------------------------------------


def q_revenue_drawdown(sf_dir: str):
    import ray
    days, rev = _daily_order_revenue(sf_dir)
    cum = np.cumsum(rev)
    peak = np.maximum.accumulate(cum)
    dd = peak - cum
    best = int(dd.max())
    trough = int(np.argmax(dd))  # argmax returns the EARLIEST maximum
    return ray.data.from_arrow(pa.table({
        "max_drawdown": pa.array([best], type=pa.int64()),
        "trough_day": pa.array([int(days[trough])], type=pa.int64()),
        "peak_cum_rev": pa.array([int(peak[trough])], type=pa.int64()),
        "n_days": pa.array([len(days)], type=pa.int64()),
    }))


SQL_REVENUE_DRAWDOWN = f"""
WITH daily AS (
  SELECT epoch_us(o_orderdate) // {DAY_US} AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS rev
  FROM orders GROUP BY 1
), cums AS (
  SELECT day,
         SUM(rev) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING) AS cum
  FROM daily
), pref AS (
  SELECT day, cum,
         MAX(cum) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING) AS peak
  FROM cums
)
SELECT CAST(peak - cum AS BIGINT) AS max_drawdown,
       day AS trough_day,
       CAST(peak AS BIGINT) AS peak_cum_rev,
       CAST((SELECT COUNT(*) FROM daily) AS BIGINT) AS n_days
FROM pref
ORDER BY peak - cum DESC, day ASC
LIMIT 1
"""


def build_queries_ext133() -> dict:
    return {
        "max_revenue_window": q_max_revenue_window,
        "revenue_drawdown": q_revenue_drawdown,
    }


def build_oracles_ext133() -> dict:
    return {
        "max_revenue_window": SQL_MAX_REVENUE_WINDOW,
        "revenue_drawdown": SQL_REVENUE_DRAWDOWN,
    }
