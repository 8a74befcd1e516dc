"""Round-3 extension operators, batch 120: Mann-Kendall trend statistics
+ hourly cross-correlation between event types.

``mann_kendall_stats`` — per event type, the exact integer components
of the Mann-Kendall trend test over the type's DAILY event-count
series (observed days only, ordered by day):

    s_stat = SUM_{i<j} sign(c_j - c_i)
    var18  = n(n-1)(2n+5) - SUM_g t_g (t_g-1)(2 t_g + 5)

where n = number of observed days and t_g are the sizes of the tied
groups of equal counts (var18 is 18·Var(S) — the classic variance
formula with the tie correction, kept as an exact int64 so no float
division crosses the oracle boundary).  The (type, day) histogram is
bounded (types × 30 days) and flows through the map-side combine; the
quadratic sign fold runs vectorized on the driver over that bounded
table.  Oracle: the same daily CTE self-joined i<j, tie groups via a
count-of-counts rollup.

``type_hourly_crosscorr`` — for every ORDERED pair of event types
(a, b) and lag ∈ {0,1,2,3} hours, the raw cross-correlation of the
hourly count series on the global epoch-hour index:

    xcorr = SUM_h c_a(h) · c_b(h + lag)

Missing hours count 0, so the sum over the inner-joined observed hours
IS the dense dot product — exact int64.  Bounded (type, hour)
histogram (types × 720 hours) through the map-side combine; the 25
pairs × 4 lags fold is a driver-side numpy matmul over the dense
pivot.  Includes a == b (lagged autocorrelation).  Oracle: the hourly
CTE joined to itself on ``hb.h = ha.h + lag``.

Reference anchors: time-series analytics family (SURVEY.md §2.4);
siblings: anomalous_days (bounded daily histogram + driver fold),
yoy_sign_test (pairwise sign statistics), haar_hourly_energy (bounded
hourly histogram), user_lag1_moments (lagged second moments).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
HOUR_US = 3_600_000_000
XCORR_LAGS = (0, 1, 2, 3)


def _bucket_counts(sf_dir: str, div_us: int, key: str):
    """Bounded (event_type, bucket) count histogram via map-side combine."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])

    def bucket(batch: pa.Table) -> pa.Table:
        tu = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        t = pa.table({
            "event_type": batch.column("event_type"),
            key: pa.array(tu // div_us, type=pa.int64()),
        })
        out = t.group_by(["event_type", key]).aggregate([(key, "count")])
        return pa.table({
            "event_type": out.column("event_type"),
            key: out.column(key),
            "n": pc.cast(out.column(f"{key}_count"), pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", key], [("sum", "n", "n")],
    ).to_pandas()  # bounded: types × calendar buckets


# --------------------------------------------------------------------------
# mann_kendall_stats
# --------------------------------------------------------------------------


def q_mann_kendall_stats(sf_dir: str):
    import ray
    hist = _bucket_counts(sf_dir, DAY_US, "day")

    types, ss, ns, v18 = [], [], [], []
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("day")
        c = g["n"].to_numpy().astype(np.int64)
        n = len(c)
        diff = np.sign(c[None, :] - c[:, None])
        s = int(np.triu(diff, k=1).sum())
        _, tie_counts = np.unique(c, return_counts=True)
        t = tie_counts.astype(np.int64)
        tie_term = int((t * (t - 1) * (2 * t + 5)).sum())
        types.append(et)
        ns.append(n)
        ss.append(s)
        v18.append(n * (n - 1) * (2 * n + 5) - tie_term)
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n_days": pa.array(ns, type=pa.int64()),
        "s_stat": pa.array(ss, type=pa.int64()),
        "var18": pa.array(v18, type=pa.int64()),
    }))


SQL_MANN_KENDALL = f"""
WITH daily AS (
  SELECT event_type, epoch_us(ts) // {DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), pairs AS (
  SELECT a.event_type,
         CAST(SUM(SIGN(b.n - a.n)) AS BIGINT) AS s_stat
  FROM daily a JOIN daily b
    ON a.event_type = b.event_type AND a.day < b.day
  GROUP BY 1
), sizes AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_days
  FROM daily GROUP BY 1
), ties AS (
  SELECT event_type,
         CAST(SUM(t * (t - 1) * (2 * t + 5)) AS BIGINT) AS tie_term
  FROM (
    SELECT event_type, n, CAST(COUNT(*) AS BIGINT) AS t
    FROM daily GROUP BY 1, 2
  ) GROUP BY 1
)
SELECT s.event_type, s.n_days,
       COALESCE(p.s_stat, 0) AS s_stat,
       s.n_days * (s.n_days - 1) * (2 * s.n_days + 5) - t.tie_term AS var18
FROM sizes s
JOIN ties t ON t.event_type = s.event_type
LEFT JOIN pairs p ON p.event_type = s.event_type
"""


# --------------------------------------------------------------------------
# type_hourly_crosscorr
# --------------------------------------------------------------------------


def q_type_hourly_crosscorr(sf_dir: str):
    import ray
    hist = _bucket_counts(sf_dir, HOUR_US, "hour")

    types = sorted(hist["event_type"].unique())
    h0, h1 = int(hist["hour"].min()), int(hist["hour"].max())
    span = h1 - h0 + 1
    dense = np.zeros((len(types), span), dtype=np.int64)
    tidx = {t: i for i, t in enumerate(types)}
    dense[hist["event_type"].map(tidx).to_numpy(),
          hist["hour"].to_numpy().astype(np.int64) - h0] = (
        hist["n"].to_numpy().astype(np.int64))

    ta, tb, lags, xs = [], [], [], []
    for lag in XCORR_LAGS:
        # c_b shifted: align c_a(h) with c_b(h+lag)
        a_part = dense[:, : span - lag] if lag else dense
        b_part = dense[:, lag:] if lag else dense
        m = a_part @ b_part.T  # (types × types) exact int64 dot
        for i, na in enumerate(types):
            for j, nb in enumerate(types):
                ta.append(na)
                tb.append(nb)
                lags.append(lag)
                xs.append(int(m[i, j]))
    return ray.data.from_arrow(pa.table({
        "type_a": pa.array(ta, type=pa.string()),
        "type_b": pa.array(tb, type=pa.string()),
        "lag": pa.array(lags, type=pa.int64()),
        "xcorr": pa.array(xs, type=pa.int64()),
    }))


SQL_XCORR = f"""
WITH hourly AS (
  SELECT event_type, epoch_us(ts) // {HOUR_US} AS h,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), types AS (SELECT DISTINCT event_type FROM events),
lags AS (SELECT UNNEST([0, 1, 2, 3]) AS lag)
SELECT a.event_type AS type_a, b.event_type AS type_b, CAST(l.lag AS BIGINT) AS lag,
       COALESCE(CAST((
           SELECT SUM(ha.n * hb.n)
           FROM hourly ha JOIN hourly hb
             ON ha.event_type = a.event_type
            AND hb.event_type = b.event_type
            AND hb.h = ha.h + l.lag
       ) AS BIGINT), 0) AS xcorr
FROM types a CROSS JOIN types b CROSS JOIN lags l
"""


def build_queries_ext120() -> dict:
    return {
        "mann_kendall_stats": q_mann_kendall_stats,
        "type_hourly_crosscorr": q_type_hourly_crosscorr,
    }


def build_oracles_ext120() -> dict:
    return {
        "mann_kendall_stats": SQL_MANN_KENDALL,
        "type_hourly_crosscorr": SQL_XCORR,
    }
