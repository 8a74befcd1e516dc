"""Round-3 extension operators, batch 124: hourly peak detection +
Wald-Wolfowitz runs test on the daily sign sequence.

``hourly_peak_counts`` — per event type, the count of STRICT local
maxima in the hourly event-count series on the observed global
epoch-hour index (interior hours only: c[h-1] < c[h] > c[h+1] over
consecutive OBSERVED hours of that type), plus the series length and
the max single-hour count.  The (type, hour) histogram is bounded
(types × 720 hours) and flows through the map-side combine; the peak
scan is one vectorized driver pass.  Oracle: LAG/LEAD over the hourly
CTE with the same consecutive-observed-hours semantics (peaks compare
ROW neighbors, which for a type observed every hour equals calendar
neighbors — both sides use row order, so the spec is engine-neutral).

``runs_test_daily`` — the Wald-Wolfowitz runs test core per event
type over the daily count series (observed days, day order): with the
binary sequence s_d = (c_d > per-type LOWER-MEDIAN daily count), emit
n_above, n_below and n_runs = 1 + #(sign transitions).  All exact
integers — the lower median is the (n+1)//2-th order statistic (the
anomalous_days idiom), no float boundary anywhere.  Oracle: the same
median via ROW_NUMBER, transitions via LAG.

Reference anchors: time-series analytics family (SURVEY.md §2.4);
siblings: mann_kendall_stats / anomalous_days (bounded daily
histograms + integer statistics), type_hourly_crosscorr (bounded
hourly histogram), yoy_sign_test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .queries_ext120 import DAY_US, HOUR_US, _bucket_counts


# --------------------------------------------------------------------------
# hourly_peak_counts
# --------------------------------------------------------------------------


def q_hourly_peak_counts(sf_dir: str):
    import ray
    hist = _bucket_counts(sf_dir, HOUR_US, "hour")

    types, npk, nh, mx = [], [], [], []
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("hour")
        c = g["n"].to_numpy().astype(np.int64)
        peaks = 0
        if len(c) >= 3:
            peaks = int(((c[1:-1] > c[:-2]) & (c[1:-1] > c[2:])).sum())
        types.append(et)
        npk.append(peaks)
        nh.append(len(c))
        mx.append(int(c.max()) if len(c) else 0)
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n_hours": pa.array(nh, type=pa.int64()),
        "n_peaks": pa.array(npk, type=pa.int64()),
        "max_hour_n": pa.array(mx, type=pa.int64()),
    }))


SQL_HOURLY_PEAK_COUNTS = f"""
WITH hourly AS (
  SELECT event_type, epoch_us(ts) // {HOUR_US} AS h,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), lagged AS (
  SELECT event_type, n,
         LAG(n) OVER w AS p, LEAD(n) OVER w AS q
  FROM hourly
  WINDOW w AS (PARTITION BY event_type ORDER BY h)
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_hours,
       CAST(SUM(CASE WHEN p IS NOT NULL AND q IS NOT NULL
                      AND n > p AND n > q THEN 1 ELSE 0 END) AS BIGINT)
           AS n_peaks,
       CAST(MAX(n) AS BIGINT) AS max_hour_n
FROM lagged GROUP BY event_type
"""


# --------------------------------------------------------------------------
# runs_test_daily
# --------------------------------------------------------------------------


def q_runs_test_daily(sf_dir: str):
    import ray
    hist = _bucket_counts(sf_dir, DAY_US, "day")

    types, na, nb, nr, med = [], [], [], [], []
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("day")
        c = g["n"].to_numpy().astype(np.int64)
        m = int(np.sort(c)[(len(c) - 1) // 2])  # lower median — integer
        s = c > m
        runs = 1 + int((s[1:] != s[:-1]).sum()) if len(s) else 0
        types.append(et)
        na.append(int(s.sum()))
        nb.append(int((~s).sum()))
        nr.append(runs)
        med.append(m)
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "median_n": pa.array(med, type=pa.int64()),
        "n_above": pa.array(na, type=pa.int64()),
        "n_below": pa.array(nb, type=pa.int64()),
        "n_runs": pa.array(nr, type=pa.int64()),
    }))


SQL_RUNS_TEST_DAILY = f"""
WITH daily AS (
  SELECT event_type, epoch_us(ts) // {DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), med AS (
  SELECT event_type, n AS m FROM (
    SELECT event_type, n,
           ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY n) AS rn,
           COUNT(*) OVER (PARTITION BY event_type) AS d
    FROM daily
  ) WHERE rn = (d + 1) // 2
), signs AS (
  SELECT d.event_type, d.day, m.m,
         CASE WHEN d.n > m.m THEN 1 ELSE 0 END AS s
  FROM daily d JOIN med m ON m.event_type = d.event_type
), trans AS (
  SELECT event_type, m, s,
         LAG(s) OVER (PARTITION BY event_type ORDER BY day) AS ps
  FROM signs
)
SELECT event_type,
       CAST(MAX(m) AS BIGINT) AS median_n,
       CAST(SUM(s) AS BIGINT) AS n_above,
       CAST(SUM(1 - s) AS BIGINT) AS n_below,
       CAST(1 + SUM(CASE WHEN ps IS NOT NULL AND s <> ps
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_runs
FROM trans GROUP BY event_type
"""


def build_queries_ext124() -> dict:
    return {
        "hourly_peak_counts": q_hourly_peak_counts,
        "runs_test_daily": q_runs_test_daily,
    }


def build_oracles_ext124() -> dict:
    return {
        "hourly_peak_counts": SQL_HOURLY_PEAK_COUNTS,
        "runs_test_daily": SQL_RUNS_TEST_DAILY,
    }
