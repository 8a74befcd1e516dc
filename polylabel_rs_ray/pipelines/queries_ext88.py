"""Round-3 extension operators, batch 88: nearest-neighbor spacing and
clamped backlog simulation.

``nn_distance_histogram`` — point-pattern spacing diagnostics: each
label point's exact nearest-neighbor squared distance (brute force
over the dim-scale point set — the tile-bucketed path covers corpus
scale), bucketed by floor(log2) into powers of two.  Dyadic exact
squared distances, integer bucket arithmetic; the SQL oracle is the
literal self-join MIN + the same log2 bucket ladder.

``order_backlog_sim`` — deterministic queue simulation: daily order
arrivals against a fixed service capacity, backlog following
``b_t = max(0, b_{t-1} + a_t - c)``.  The clamped recurrence has the
classic prefix identity ``b_t = p_t - min_{j<=t} p_j`` (p = running
sum of a-c, p_0 = 0), which turns a sequential recurrence into a
prefix sum + running min — window functions in SQL, one vectorized
pass in the engine, segmented-scan shape at scale.  Output: max
backlog, its (earliest) day, days with positive backlog, final
backlog — all exact integers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


# --------------------------------------------------------------------------
# nn_distance_histogram
# --------------------------------------------------------------------------


def q_nn_distance_histogram(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled

    pts = _dyadic_labeled(sf_dir).to_pandas()
    ax = pts["label_x"].to_numpy()
    ay = pts["label_y"].to_numpy()
    adoc = pts["doc_num"].to_numpy().astype(np.int64)

    def stage(batch: pa.Table) -> pa.Table:
        bx = batch.column("label_x").to_numpy()
        by = batch.column("label_y").to_numpy()
        bdoc = batch.column("doc_num").to_numpy().astype(np.int64)
        dx = bx[:, None] - ax[None, :]
        dy = by[:, None] - ay[None, :]
        d2 = dx * dx + dy * dy
        d2[bdoc[:, None] == adoc[None, :]] = np.inf
        nn = d2.min(axis=1)
        # bucket: floor(log2(nn)) clamped at 0 for sub-unit spacings;
        # exact-duplicate points (nn == 0) get bucket -1
        bucket = np.full(len(nn), -1, dtype=np.int64)
        pos = nn > 0.0
        bucket[pos] = np.maximum(
            np.floor(np.log2(nn[pos])).astype(np.int64), 0)
        return pa.table({
            "bucket": pa.array(bucket, type=pa.int64()),
        })

    return grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(stage, batch_format="pyarrow",
                                            zero_copy_batch=True),
        ["bucket"], [("count", None, "n_points")],
    )


def _sql_nn_distance_histogram() -> str:
    from .queries import _sql_dyadic_labels_cte

    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        nn AS (
          SELECT a.doc_num,
                 MIN((a.label_x - b.label_x) * (a.label_x - b.label_x)
                     + (a.label_y - b.label_y) * (a.label_y - b.label_y))
                   AS d2
          FROM labels a JOIN labels b ON a.doc_num <> b.doc_num
          GROUP BY a.doc_num
        )
        SELECT CAST(CASE WHEN d2 = 0 THEN -1
                         ELSE GREATEST(CAST(FLOOR(LOG2(d2)) AS BIGINT), 0)
                    END AS BIGINT) AS bucket,
               CAST(COUNT(*) AS BIGINT) AS n_points
        FROM nn GROUP BY 1
    """


# --------------------------------------------------------------------------
# order_backlog_sim
# --------------------------------------------------------------------------


def q_order_backlog_sim(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def daily(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("o_orderdate"),
                      pa.int64()).to_numpy() // DAY_US
        t = pa.table({"day": pa.array(day, type=pa.int64())})
        out = t.group_by(["day"]).aggregate([("day", "count")])
        return pa.table({
            "day": out.column("day"),
            "n": pc.cast(out.column("day_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderdate"])
        .map_batches(daily, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "n", "n")],
    ).to_pandas().sort_values("day")

    days = hist["day"].to_numpy().astype(np.int64)
    lo, hi = int(days.min()), int(days.max())
    a = np.zeros(hi - lo + 1, dtype=np.int64)
    a[days - lo] = hist["n"].to_numpy().astype(np.int64)
    total = int(a.sum())
    n_days = len(a)
    capacity = -(-total // n_days)  # ceil(avg arrivals/day)

    # clamped recurrence via prefix identity: b = p - running_min(p), p0=0
    p = np.concatenate([[0], np.cumsum(a - capacity)])
    runmin = np.minimum.accumulate(p)
    b = p[1:] - runmin[1:]  # backlog after each day
    max_b = int(b.max())
    argmax_day = int(lo + int(np.argmax(b)))  # earliest day on ties
    import pandas as pd

    return pd.DataFrame({
        "capacity": [np.int64(capacity)],
        "max_backlog": [np.int64(max_b)],
        "max_backlog_day": [np.int64(argmax_day)],
        "days_with_backlog": [np.int64(int((b > 0).sum()))],
        "final_backlog": [np.int64(int(b[-1]))],
    })


SQL_ORDER_BACKLOG_SIM = f"""
WITH ev AS (
  SELECT CAST(epoch_us(o_orderdate) AS BIGINT) // {DAY_US} AS day
  FROM orders
),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM ev),
days AS (SELECT unnest(generate_series(lo, hi)) AS day FROM bounds),
cnt AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n FROM ev GROUP BY day),
x AS (
  SELECT d.day, COALESCE(c.n, 0) AS n
  FROM days d LEFT JOIN cnt c ON d.day = c.day
),
cap AS (
  SELECT CAST(CEIL(SUM(n) * 1.0 / COUNT(*)) AS BIGINT) AS capacity FROM x
),
pref AS (
  SELECT day,
         SUM(n - (SELECT capacity FROM cap))
           OVER (ORDER BY day ROWS UNBOUNDED PRECEDING) AS p
  FROM x
),
runm AS (
  SELECT day, p,
         LEAST(0, MIN(p) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING))
           AS rmin
  FROM pref
),
b AS (SELECT day, p - rmin AS backlog FROM runm),
best AS (
  SELECT day, backlog,
         ROW_NUMBER() OVER (ORDER BY backlog DESC, day ASC) AS rk
  FROM b
)
SELECT CAST((SELECT capacity FROM cap) AS BIGINT) AS capacity,
       CAST((SELECT backlog FROM best WHERE rk = 1) AS BIGINT)
         AS max_backlog,
       CAST((SELECT day FROM best WHERE rk = 1) AS BIGINT)
         AS max_backlog_day,
       CAST((SELECT COUNT(*) FROM b WHERE backlog > 0) AS BIGINT)
         AS days_with_backlog,
       CAST((SELECT backlog FROM b ORDER BY day DESC LIMIT 1) AS BIGINT)
         AS final_backlog
"""


def build_queries_ext88() -> dict:
    return {
        "nn_distance_histogram": q_nn_distance_histogram,
        "order_backlog_sim": q_order_backlog_sim,
    }


def build_oracles_ext88() -> dict:
    return {
        "nn_distance_histogram": _sql_nn_distance_histogram(),
        "order_backlog_sim": SQL_ORDER_BACKLOG_SIM,
    }
