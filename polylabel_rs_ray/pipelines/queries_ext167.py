"""Round-3 extension operators, batch 167: Kaplan-Meier risk table +
exact sliding median of daily revenue.

``km_risk_table`` — the survival-analysis primitive: the Kaplan-Meier
risk table of "days from order to ship" where the event is a RETURN
(``l_returnflag = 'R'``) and 'A'/'N' lineitems are right-censored at
their own duration.  Everything emitted is an exact integer — per
distinct duration t: ``n_risk`` (items with duration ≥ t), the event
count d and the censor count c — so the contract dodges the one
genuinely float-laden piece (the survival product Π(1−d/n), which the
pytest twin folds from this table and cross-checks against a direct
big-Fraction computation).  Durations can be NEGATIVE here (this
corpus ships some lineitems before their order date — the
busday_ship_lag sibling measured it); KM ordering handles that
untouched.  Distributed shape: the order→lineitem attach is the
co-partitioned union join (one hash exchange); the (t, flag) counts
reduce through the map-side combine to a bounded distinct-duration
table; the ``n_risk`` suffix-cumulative folds on that bounded table.

``daily_revenue_sliding_median`` — the robust trend line: per day, the
EXACT median of daily revenue cents over the trailing 7-day ROW
window (shorter at the series head).  Medians of even windows are
half-integers, so the emitted value is ``med2 = 2·median`` — integer
always; both engines interpolate identically by construction.
Distributed shape: the daily cents reduce (map-side combine, bounded
~2.5k-day domain), then one vectorized sliding-sort fold on the
bounded series.  Oracle: DuckDB's MEDIAN as a ROWS-window aggregate,
doubled and cast — a genuinely independent implementation of the
order statistic.

Reference anchors: statistics + time-series families (SURVEY.md
§2.4); siblings: busday_ship_lag (co-partitioned union join, negative
lags), daily_revenue_7d (mean twin of the median window),
value_quantiles (global exact order statistics), wow_retention.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

KM_EVENT_FLAG = "R"
MED_WINDOW = 7


# --------------------------------------------------------------------------
# km_risk_table
# --------------------------------------------------------------------------


def q_km_risk_table(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def order_side(batch: pa.Table) -> pa.Table:
        key = batch.column("o_orderkey").to_numpy().astype(np.int64)
        odays = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
                 // 86_400_000_000)
        return pa.table({
            "key": pa.array(key, type=pa.int64()),
            "odays": pa.array(odays, type=pa.int64()),
            "sdays": pa.nulls(batch.num_rows, pa.int64()),
            "flag": pa.nulls(batch.num_rows, pa.string()),
        })

    def line_side(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        sdays = (pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
                 // 86_400_000_000)
        return pa.table({
            "key": pa.array(key, type=pa.int64()),
            "odays": pa.nulls(batch.num_rows, pa.int64()),
            "sdays": pa.array(sdays, type=pa.int64()),
            "flag": batch.column("l_returnflag"),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"],
    ).map_batches(order_side, batch_format="pyarrow", zero_copy_batch=True)
    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_returnflag"],
    ).map_batches(line_side, batch_format="pyarrow", zero_copy_batch=True)

    def join_group(group: pa.Table) -> pa.Table:
        is_order = pc.is_valid(group.column("odays"))
        o = group.filter(is_order)
        l = group.filter(pc.invert(is_order))
        okey = o.column("key").to_numpy().astype(np.int64)
        oord = np.argsort(okey, kind="stable")
        okey = okey[oord]
        odays = o.column("odays").to_numpy().astype(np.int64)[oord]
        lkey = l.column("key").to_numpy().astype(np.int64)
        sdays = l.column("sdays").to_numpy().astype(np.int64)
        flag = l.column("flag").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(okey, lkey)
        assert np.all(okey[pos] == lkey)
        t = sdays - odays[pos]
        ev = (flag == KM_EVENT_FLAG).astype(np.int64)
        tt = pa.table({
            "t_days": pa.array(t, type=pa.int64()),
            "d": pa.array(ev, type=pa.int64()),
            "c": pa.array(1 - ev, type=pa.int64()),
        })
        g = tt.group_by("t_days").aggregate([("d", "sum"), ("c", "sum")])
        return pa.table({
            "t_days": g.column("t_days"),
            "d": pc.cast(g.column("d_sum"), pa.int64()),
            "c": pc.cast(g.column("c_sum"), pa.int64()),
        })

    both = orders.union(lines)
    per = hash_exchange(both, "key", join_group, n_parts)
    counts = grouped_aggregate(
        per, ["t_days"], [("sum", "d", "d"), ("sum", "c", "c")],
    ).to_pandas()  # bounded: one row per distinct duration
    counts = counts.sort_values("t_days").reset_index(drop=True)
    d = counts["d"].to_numpy().astype(np.int64)
    c = counts["c"].to_numpy().astype(np.int64)
    tot = d + c
    n_risk = tot[::-1].cumsum()[::-1]  # items with duration >= t
    return ray.data.from_arrow(pa.table({
        "t_days": pa.array(counts["t_days"].to_numpy().astype(np.int64)),
        "n_risk": pa.array(n_risk, type=pa.int64()),
        "d_returned": pa.array(d, type=pa.int64()),
        "c_censored": pa.array(c, type=pa.int64()),
    }))


SQL_KM_RISK_TABLE = f"""
WITH j AS MATERIALIZED (
  SELECT CAST(date_diff('day', CAST(o.o_orderdate AS DATE),
                        CAST(l.l_shipdate AS DATE)) AS BIGINT) AS t_days,
         CASE WHEN l.l_returnflag = '{KM_EVENT_FLAG}' THEN 1 ELSE 0 END
           AS ev
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
), g AS (
  SELECT t_days, CAST(SUM(ev) AS BIGINT) AS d,
         CAST(SUM(1 - ev) AS BIGINT) AS c
  FROM j GROUP BY 1
)
SELECT t_days,
       CAST(SUM(d + c) OVER (ORDER BY t_days DESC
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND CURRENT ROW) AS BIGINT) AS n_risk,
       d AS d_returned, c AS c_censored
FROM g
"""


# --------------------------------------------------------------------------
# daily_revenue_sliding_median
# --------------------------------------------------------------------------


def q_daily_revenue_sliding_median(sf_dir: str):
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
    daily = daily.sort_values("day").reset_index(drop=True)
    day = daily["day"].to_numpy().astype(np.int64)
    cents = daily["cents"].to_numpy().astype(np.int64)
    n = len(day)
    med2 = np.empty(n, dtype=np.int64)
    win_n = np.empty(n, dtype=np.int64)
    for i in range(n):  # bounded-domain fold
        w = np.sort(cents[max(0, i - MED_WINDOW + 1):i + 1])
        m = len(w)
        win_n[i] = m
        if m % 2:
            med2[i] = 2 * w[m // 2]
        else:
            med2[i] = int(w[m // 2 - 1]) + int(w[m // 2])
    return ray.data.from_arrow(pa.table({
        "day": pa.array(day, type=pa.int64()),
        "window_n": pa.array(win_n, type=pa.int64()),
        "med2": pa.array(med2, type=pa.int64()),
    }))


SQL_DAILY_REVENUE_SLIDING_MEDIAN = f"""
WITH daily AS MATERIALIZED (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT)
           AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
)
SELECT day,
       CAST(COUNT(*) OVER w AS BIGINT) AS window_n,
       CAST(ROUND(2 * MEDIAN(cents) OVER w) AS BIGINT) AS med2
FROM daily
WINDOW w AS (ORDER BY day ROWS BETWEEN {MED_WINDOW - 1} PRECEDING
             AND CURRENT ROW)
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext167():
    return {
        "km_risk_table": q_km_risk_table,
        "daily_revenue_sliding_median": q_daily_revenue_sliding_median,
    }


def build_oracles_ext167():
    return {
        "km_risk_table": SQL_KM_RISK_TABLE,
        "daily_revenue_sliding_median": SQL_DAILY_REVENUE_SLIDING_MEDIAN,
    }
