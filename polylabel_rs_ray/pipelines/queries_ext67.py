"""Round-3 extension operators, batch 67: sequence autocovariance and
multi-feature regression via sufficient statistics.

``user_lag1_moments`` — per-user lag-1 autocovariance building blocks
over the time-ordered event-value series: n, Σx, Σx², Σ x_i·x_{i+1}
(all exact integer cents) — the distributed form of autocorrelation
estimation: each user's series co-locates through one hash exchange,
order is (ts, event_id) so ties break deterministically, adjacent
products vectorize per partition with user boundaries from one diff.

``ols_price_model`` — two-feature least squares (extendedprice ~
quantity + discount) trained the scale-correct way: ONE pass
accumulates the exact integer moment matrix (Σx1, Σx2, Σy, Σx1²,
Σx2², Σx1x2, Σx1y, Σx2y, n) through a single-row map-side-combined
aggregate, and the normal equations solve by CRAMER'S RULE as exact
integer determinant rationals (beta_num / beta_den) — distributed ML
training via sufficient statistics with a bit-exact oracle, no float
accumulation order anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


def q_user_lag1_moments(sf_dir: str, n_parts: int | None = None):
    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(batch.column("value"),
                                                  100.0)), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        x = group.column("cents").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, x = uid[order], x[order]
        # user boundaries: adjacent pairs only count within one user
        same = np.empty(len(uid), dtype=bool)
        same[:-1] = uid[1:] == uid[:-1]
        same[-1] = False
        lagprod = np.where(same, x * np.roll(x, -1), 0)
        # segment sums per user via reduceat on boundary starts
        starts = np.flatnonzero(np.concatenate(
            [[True], uid[1:] != uid[:-1]]))
        users = uid[starts]
        n = np.diff(np.concatenate([starts, [len(uid)]]))
        sum_x = np.add.reduceat(x, starts)
        sum_sq = np.add.reduceat(x * x, starts)
        sum_lag = np.add.reduceat(lagprod, starts)
        return pa.table({
            "user_id": pa.array(users, type=pa.int64()),
            "n_events": pa.array(n.astype(np.int64), type=pa.int64()),
            "sum_cents": pa.array(sum_x, type=pa.int64()),
            "sum_sq_cents": pa.array(sum_sq, type=pa.int64()),
            "sum_lag1_prod": pa.array(sum_lag, type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    return hash_exchange(ds, "user_id", per_partition, n_parts)


SQL_USER_LAG1_MOMENTS = """
WITH seq AS (
  SELECT user_id,
         CAST(ROUND(value * 100) AS BIGINT) AS cents,
         LEAD(CAST(ROUND(value * 100) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY ts, event_id) AS next_cents
  FROM events
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(cents) AS BIGINT) AS sum_cents,
       CAST(SUM(cents * cents) AS BIGINT) AS sum_sq_cents,
       CAST(COALESCE(SUM(cents * next_cents), 0) AS BIGINT) AS sum_lag1_prod
FROM seq GROUP BY user_id
"""


def q_ols_price_model(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def moments(batch: pa.Table) -> pa.Table:
        x1 = pc.cast(pc.round(batch.column("l_quantity")), pa.int64()).to_numpy()
        x2 = pc.cast(pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
                     pa.int64()).to_numpy()
        y = pc.cast(pc.round(pc.multiply(batch.column("l_extendedprice"),
                                         100.0)), pa.int64()).to_numpy()
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n": pa.array([len(x1)], type=pa.int64()),
            "s1": pa.array([int(x1.sum())], type=pa.int64()),
            "s2": pa.array([int(x2.sum())], type=pa.int64()),
            "sy": pa.array([int(y.sum())], type=pa.int64()),
            "s11": pa.array([int((x1 * x1).sum())], type=pa.int64()),
            "s22": pa.array([int((x2 * x2).sum())], type=pa.int64()),
            "s12": pa.array([int((x1 * x2).sum())], type=pa.int64()),
            "s1y": pa.array([int((x1 * y).sum())], type=pa.int64()),
            "s2y": pa.array([int((x2 * y).sum())], type=pa.int64()),
        })

    agg = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_quantity", "l_discount", "l_extendedprice"],
        ).map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        ["k"],
        [("sum", c, c) for c in
         ("n", "s1", "s2", "sy", "s11", "s22", "s12", "s1y", "s2y")],
    ).to_pandas()  # single row of sufficient statistics
    m = {c: int(agg.iloc[0][c]) for c in agg.columns if c != "k"}

    # normal equations  [n  s1  s2 ] [b0]   [sy ]
    #                   [s1 s11 s12] [b1] = [s1y]
    #                   [s2 s12 s22] [b2]   [s2y]
    # solved by Cramer's rule in exact python ints
    def det3(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))

    A = [[m["n"], m["s1"], m["s2"]],
         [m["s1"], m["s11"], m["s12"]],
         [m["s2"], m["s12"], m["s22"]]]
    b = [m["sy"], m["s1y"], m["s2y"]]
    den = det3(A)
    nums = []
    for j in range(3):
        Aj = [[b[i] if k == j else A[i][k] for k in range(3)]
              for i in range(3)]
        nums.append(det3(Aj))

    import pandas as pd

    # determinants exceed int64 — emit as exact decimal strings (the oracle
    # casts its HUGEINTs to VARCHAR the same way)
    return pd.DataFrame({
        "n": [m["n"]],
        "beta0_num": [str(nums[0])],
        "beta1_num": [str(nums[1])],
        "beta2_num": [str(nums[2])],
        "beta_den": [str(den)],
    })


SQL_OLS_PRICE_MODEL = """
WITH t AS (
  SELECT CAST(ROUND(l_quantity) AS HUGEINT) AS x1,
         CAST(ROUND(l_discount * 100) AS HUGEINT) AS x2,
         CAST(ROUND(l_extendedprice * 100) AS HUGEINT) AS y
  FROM lineitem
), mo AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n,
         SUM(x1) AS s1, SUM(x2) AS s2, SUM(y) AS sy,
         SUM(x1*x1) AS s11, SUM(x2*x2) AS s22, SUM(x1*x2) AS s12,
         SUM(x1*y) AS s1y, SUM(x2*y) AS s2y
  FROM t
)
SELECT CAST(n AS BIGINT) AS n,
       CAST(sy  * (s11*s22 - s12*s12) - s1 * (s1y*s22 - s12*s2y)
            + s2 * (s1y*s12 - s11*s2y) AS VARCHAR) AS beta0_num,
       CAST(n   * (s1y*s22 - s12*s2y) - sy * (s1*s22 - s12*s2)
            + s2 * (s1*s2y - s1y*s2) AS VARCHAR) AS beta1_num,
       CAST(n   * (s11*s2y - s1y*s12) - s1 * (s1*s2y - s1y*s2)
            + sy * (s1*s12 - s11*s2) AS VARCHAR) AS beta2_num,
       CAST(n   * (s11*s22 - s12*s12) - s1 * (s1*s22 - s12*s2)
            + s2 * (s1*s12 - s11*s2) AS VARCHAR) AS beta_den
FROM mo
"""


def build_queries_ext67() -> dict:
    return {
        "user_lag1_moments": q_user_lag1_moments,
        "ols_price_model": q_ols_price_model,
    }


def build_oracles_ext67() -> dict:
    return {
        "user_lag1_moments": SQL_USER_LAG1_MOMENTS,
        "ols_price_model": SQL_OLS_PRICE_MODEL,
    }
