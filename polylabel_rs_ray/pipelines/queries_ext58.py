"""Round-3 extension operators, batch 58: A/B experiment analysis.

``ab_test_purchase_rates`` — the experimentation readout: users are
deterministically assigned to arms by ``md5_number_lower(user_id) % 2``
(the train/test-split convention — replayable, stable under reshuffles),
and the op reports per-arm exact counts (users, converters), the
conversion rates, and the pooled two-proportion z-statistic

    z = (p1 - p0) / sqrt(p*(1-p) * (1/n0 + 1/n1)),  p = (c0+c1)/(n0+n1)

— every float op mirrored verbatim in SQL, so the statistic itself is
bit-exact (the rare all-or-nothing degenerate pins z = 0).

Scale shape: per-user conversion flags ride the high-cardinality user
exchange; the per-arm rollup is a 2-row aggregate; the statistic is a
driver-side scalar fold.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _arm_of(uids: np.ndarray) -> np.ndarray:
    # md5 low-8-bytes little-endian of the decimal user id — the repo's
    # SQL-replayable hash convention (bounded: one digest per user row of
    # the per-user table, not per event)
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(str(int(u)).encode()).digest()[8:],
                           "little") % 2
            for u in uids
        ),
        dtype=np.int64,
        count=len(uids),
    )


def q_ab_test_purchase_rates(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        conv = pc.equal(batch.column("event_type"), "purchase").to_numpy(
            zero_copy_only=False).astype(np.int64)
        t = pa.table({"user_id": pa.array(uid), "conv": pa.array(conv)})
        out = t.group_by(["user_id"]).aggregate([("conv", "max")])
        return pa.table({
            "user_id": out.column("user_id"),
            "conv": pc.cast(out.column("conv_max"), pa.int64()),
        })

    users = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], [("max", "conv", "conv")],
    )

    def arm_rollup(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        conv = batch.column("conv").to_numpy().astype(np.int64)
        arm = _arm_of(uid)
        t = pa.table({
            "arm": pa.array(arm),
            "one": pa.array(np.ones(len(uid), np.int64)),
            "conv": pa.array(conv),
        })
        out = t.group_by(["arm"]).aggregate([("one", "sum"), ("conv", "sum")])
        return pa.table({
            "arm": out.column("arm"),
            "n_users": pc.cast(out.column("one_sum"), pa.int64()),
            "n_converted": pc.cast(out.column("conv_sum"), pa.int64()),
        })

    arms = grouped_aggregate(
        users.map_batches(arm_rollup, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["arm"],
        [("sum", "n_users", "n_users"), ("sum", "n_converted", "n_converted")],
    ).to_pandas().sort_values("arm")  # 2 rows

    n = arms["n_users"].to_numpy().astype(np.int64)
    c = arms["n_converted"].to_numpy().astype(np.int64)
    rate = c.astype(np.float64) / n.astype(np.float64)
    p = float(c.sum()) / float(n.sum())
    denom = math.sqrt(p * (1.0 - p) * (1.0 / float(n[0]) + 1.0 / float(n[1])))
    z = 0.0 if denom == 0.0 else (rate[1] - rate[0]) / denom
    t = pa.table({
        "arm": pa.array(arms["arm"].to_numpy().astype(np.int64), type=pa.int64()),
        "n_users": pa.array(n, type=pa.int64()),
        "n_converted": pa.array(c, type=pa.int64()),
        "conv_rate": pa.array(rate, type=pa.float64()),
        "z_stat": pa.array(np.full(2, z, np.float64), type=pa.float64()),
    })
    return ray.data.from_arrow(t)


SQL_AB_TEST_PURCHASE_RATES = """
WITH u AS (
  SELECT user_id,
         MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS conv
  FROM events GROUP BY user_id
), lab AS (
  SELECT md5_number_lower(CAST(user_id AS VARCHAR)) % 2 AS arm, conv FROM u
), arms AS (
  SELECT CAST(arm AS BIGINT) AS arm, CAST(COUNT(*) AS BIGINT) AS n_users,
         CAST(SUM(conv) AS BIGINT) AS n_converted
  FROM lab GROUP BY 1
), g AS (
  SELECT CAST(SUM(n_converted) AS DOUBLE) / CAST(SUM(n_users) AS DOUBLE) AS p,
         MAX(CASE WHEN arm = 0 THEN n_users END) AS n0,
         MAX(CASE WHEN arm = 1 THEN n_users END) AS n1,
         MAX(CASE WHEN arm = 0 THEN n_converted END) AS c0,
         MAX(CASE WHEN arm = 1 THEN n_converted END) AS c1
  FROM arms
), zc AS (
  SELECT CASE
    WHEN SQRT(p * (1.0 - p) * (1.0 / CAST(n0 AS DOUBLE)
                               + 1.0 / CAST(n1 AS DOUBLE))) = 0 THEN 0.0
    ELSE (CAST(c1 AS DOUBLE) / CAST(n1 AS DOUBLE)
          - CAST(c0 AS DOUBLE) / CAST(n0 AS DOUBLE))
         / SQRT(p * (1.0 - p) * (1.0 / CAST(n0 AS DOUBLE)
                                 + 1.0 / CAST(n1 AS DOUBLE)))
  END AS z FROM g
)
SELECT a.arm, a.n_users, a.n_converted,
       CAST(a.n_converted AS DOUBLE) / CAST(a.n_users AS DOUBLE) AS conv_rate,
       (SELECT z FROM zc) AS z_stat
FROM arms a
"""


def build_queries_ext58() -> dict:
    return {"ab_test_purchase_rates": q_ab_test_purchase_rates}


def build_oracles_ext58() -> dict:
    return {"ab_test_purchase_rates": SQL_AB_TEST_PURCHASE_RATES}
