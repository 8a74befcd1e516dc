"""Round-3 extension operators, batch 84: monotone-stack histogram
geometry and robust scale estimation.

``max_histogram_rectangle`` — the largest rectangle under the WEEKLY
order-count histogram (contiguous week spans where every week
sustains at least height h — "longest sustained throughput"
analytics).  The engine runs the O(n) monotone-stack algorithm over
the bounded week table; the oracle is the literal span definition in
SQL (every (start, end) pair joined to its covered weeks, MIN + width)
— two different algorithms, one exact integer answer, ties broken by
(earlier start, then width).  Weeks, not days: the span oracle is
cubic and the week domain keeps it tractable.

``qn_scale_estimator`` — the Rousseeuw-Croux Qn robust scale over
weekly order counts: the k-th order statistic (k = C(h,2)+1 with
h = n//2 + 1) of all C(n,2) pairwise absolute differences — more
efficient than MAD, still 50% breakdown.  Pure integer order
statistics over the bounded week histogram; SQL replays with a
pairwise self-join + ROW_NUMBER.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
WEEK_US = 7 * DAY_US


def _weekly_counts(sf_dir: str):
    """Bounded (week, n_orders) table, zero-filled over the full range."""
    from .agg import grouped_aggregate

    import ray

    def weekly(batch: pa.Table) -> pa.Table:
        wk = pc.cast(batch.column("o_orderdate"),
                     pa.int64()).to_numpy() // WEEK_US
        t = pa.table({"wk": pa.array(wk, type=pa.int64())})
        out = t.group_by(["wk"]).aggregate([("wk", "count")])
        return pa.table({
            "wk": out.column("wk"),
            "n": pc.cast(out.column("wk_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderdate"])
        .map_batches(weekly, batch_format="pyarrow", zero_copy_batch=True),
        ["wk"], [("sum", "n", "n")],
    ).to_pandas().sort_values("wk")
    wks = hist["wk"].to_numpy().astype(np.int64)
    lo, hi = int(wks.min()), int(wks.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[wks - lo] = hist["n"].to_numpy().astype(np.int64)
    return lo, x


def q_max_histogram_rectangle(sf_dir: str):
    lo, x = _weekly_counts(sf_dir)
    n = len(x)
    # monotone stack: for each bar, the maximal span where it is the min
    stack: list[int] = []
    best_area = -1
    best_start = best_width = best_height = 0
    ext = np.concatenate([x, [0]])  # sentinel flushes the stack
    for i in range(n + 1):
        while stack and ext[stack[-1]] >= ext[i]:
            j = stack.pop()
            h = int(ext[j])
            left = stack[-1] + 1 if stack else 0
            width = i - left
            area = h * width
            if area > best_area or (
                area == best_area
                and (left < best_start
                     or (left == best_start and width < best_width))
            ):
                best_area, best_start = area, left
                best_width, best_height = width, h
        stack.append(i)
    import pandas as pd

    return pd.DataFrame({
        "start_week": [np.int64(lo + best_start)],
        "width_weeks": [np.int64(best_width)],
        "height": [np.int64(best_height)],
        "area": [np.int64(best_area)],
    })


SQL_MAX_HISTOGRAM_RECTANGLE = f"""
WITH ev AS (
  SELECT CAST(epoch_us(o_orderdate) AS BIGINT) // {WEEK_US} AS wk
  FROM orders
),
bounds AS (SELECT MIN(wk) AS lo, MAX(wk) AS hi FROM ev),
wks AS (SELECT unnest(generate_series(lo, hi)) AS wk FROM bounds),
cnt AS (SELECT wk, CAST(COUNT(*) AS BIGINT) AS n FROM ev GROUP BY wk),
x AS (
  SELECT w.wk, COALESCE(c.n, 0) AS n
  FROM wks w LEFT JOIN cnt c ON w.wk = c.wk
),
spans AS (
  SELECT a.wk AS start_week,
         b.wk - a.wk + 1 AS width_weeks,
         MIN(m.n) AS height
  FROM x a JOIN x b ON b.wk >= a.wk
  JOIN x m ON m.wk BETWEEN a.wk AND b.wk
  GROUP BY a.wk, b.wk
),
scored AS (
  SELECT start_week, width_weeks, height,
         height * width_weeks AS area,
         ROW_NUMBER() OVER (ORDER BY height * width_weeks DESC,
                            start_week ASC, width_weeks ASC) AS rk
  FROM spans
)
SELECT CAST(start_week AS BIGINT) AS start_week,
       CAST(width_weeks AS BIGINT) AS width_weeks,
       CAST(height AS BIGINT) AS height,
       CAST(area AS BIGINT) AS area
FROM scored WHERE rk = 1
"""


def q_qn_scale_estimator(sf_dir: str):
    lo, x = _weekly_counts(sf_dir)
    n = len(x)
    diffs = np.abs(x[:, None] - x[None, :])[np.triu_indices(n, k=1)]
    diffs.sort()
    h = n // 2 + 1
    k = h * (h - 1) // 2  # 1-based k-th smallest -> index k-1
    qn = int(diffs[k - 1])
    import pandas as pd

    return pd.DataFrame({
        "n_weeks": [np.int64(n)],
        "n_pairs": [np.int64(len(diffs))],
        "k": [np.int64(k)],
        "qn": [np.int64(qn)],
    })


SQL_QN_SCALE_ESTIMATOR = f"""
WITH ev AS (
  SELECT CAST(epoch_us(o_orderdate) AS BIGINT) // {WEEK_US} AS wk
  FROM orders
),
bounds AS (SELECT MIN(wk) AS lo, MAX(wk) AS hi FROM ev),
wks AS (SELECT unnest(generate_series(lo, hi)) AS wk FROM bounds),
cnt AS (SELECT wk, CAST(COUNT(*) AS BIGINT) AS n FROM ev GROUP BY wk),
x AS (
  SELECT w.wk, COALESCE(c.n, 0) AS n
  FROM wks w LEFT JOIN cnt c ON w.wk = c.wk
),
meta AS (
  SELECT COUNT(*) AS nd,
         (COUNT(*) // 2 + 1) * (COUNT(*) // 2) // 2 AS k
  FROM x
),
pairs AS (
  SELECT ABS(a.n - b.n) AS d,
         ROW_NUMBER() OVER (ORDER BY ABS(a.n - b.n)) AS rk
  FROM x a JOIN x b ON a.wk < b.wk
)
SELECT CAST(m.nd AS BIGINT) AS n_weeks,
       CAST(m.nd * (m.nd - 1) // 2 AS BIGINT) AS n_pairs,
       CAST(m.k AS BIGINT) AS k,
       CAST((SELECT d FROM pairs WHERE rk = m.k) AS BIGINT) AS qn
FROM meta m
"""


def build_queries_ext84() -> dict:
    return {
        "max_histogram_rectangle": q_max_histogram_rectangle,
        "qn_scale_estimator": q_qn_scale_estimator,
    }


def build_oracles_ext84() -> dict:
    return {
        "max_histogram_rectangle": SQL_MAX_HISTOGRAM_RECTANGLE,
        "qn_scale_estimator": SQL_QN_SCALE_ESTIMATOR,
    }
