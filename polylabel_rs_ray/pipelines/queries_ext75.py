"""Round-3 extension operators, batch 75: state dwell times and
hierarchical share-of-parent rollups.

``type_dwell_times`` — semi-Markov state analytics over the event
stream: per event type, the total time users SPENT in that state (the
gap to each user's next event attributes to the current event's type)
and the number of completed holds.  Exact integer microseconds; the
per-user sequences co-locate through one hash exchange and the gaps
vectorize with the same lexsort + adjacent-diff machinery as the
lag-1 moments — a different aggregate over the same sequence shape.

``nation_revenue_share`` — the hierarchical ratio-to-parent rollup:
revenue per nation alongside its region's total, the share left as
the exact integer pair (nation_cents, region_cents).  Orders attach
customer nations through one co-partitioned custkey exchange; the
nation -> region rollup is bounded (25 x 5) and folds driver-side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


def q_type_dwell_times(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "event_type": batch.column("event_type"),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, ts, uid))
        uid, ts, et = uid[order], ts[order], et[order]
        same = np.empty(len(uid), dtype=bool)
        same[:-1] = uid[1:] == uid[:-1]
        same[-1] = False
        dwell = np.where(same, np.roll(ts, -1) - ts, 0)
        held = same.astype(np.int64)
        t = pa.table({
            "event_type": pa.array(et.tolist(), type=pa.string()),
            "dwell_us": pa.array(dwell, type=pa.int64()),
            "n_holds": pa.array(held, type=pa.int64()),
        })
        out = t.group_by(["event_type"]).aggregate([("dwell_us", "sum"),
                                                    ("n_holds", "sum")])
        return pa.table({
            "event_type": out.column("event_type"),
            "dwell_us": pc.cast(out.column("dwell_us_sum"), pa.int64()),
            "n_holds": pc.cast(out.column("n_holds_sum"), pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    seq = hash_exchange(ds, "user_id", per_partition, n_parts)
    return grouped_aggregate(
        seq,
        ["event_type"],
        [("sum", "dwell_us", "total_dwell_us"),
         ("sum", "n_holds", "n_holds")],
    )


SQL_TYPE_DWELL_TIMES = """
WITH seq AS (
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT) AS t,
         LEAD(CAST(epoch_us(ts) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY ts, event_id) AS t_next
  FROM events
)
SELECT event_type,
       CAST(COALESCE(SUM(t_next - t), 0) AS BIGINT) AS total_dwell_us,
       CAST(SUM(CASE WHEN t_next IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_holds
FROM seq GROUP BY event_type
"""


def q_nation_revenue_share(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    from .queries_ext60 import _attach_inner

    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rname = dict(zip(region.column("r_regionkey").to_pylist(),
                     region.column("r_name").to_pylist()))
    n_info = {
        int(k): (nm, rname[rk])
        for k, nm, rk in zip(nation.column("n_nationkey").to_pylist(),
                             nation.column("n_name").to_pylist(),
                             nation.column("n_regionkey").to_pylist())
    }

    def key_orders(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64())
        n = len(ck)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "c_custkey": pa.array(ck, type=pa.int64()),
            "cents": cents,
            "c_nationkey": pa.nulls(n, type=pa.int64()),
        })

    def key_cust(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        n = len(ck)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "c_custkey": pa.array(ck, type=pa.int64()),
            "cents": pa.nulls(n, type=pa.int64()),
            "c_nationkey": pc.cast(batch.column("c_nationkey"), pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_exchange(
        od.union(cu), "c_custkey", lambda g: _attach_inner(g, "c_custkey"), n_parts,
    )

    per_nation = grouped_aggregate(
        joined.select_columns(["c_nationkey", "cents"]),
        ["c_nationkey"],
        [("sum", "cents", "revenue_cents")],
    ).to_pandas()  # bounded: 25 nations

    per_nation["n_name"] = [n_info[int(k)][0]
                            for k in per_nation["c_nationkey"]]
    per_nation["r_name"] = [n_info[int(k)][1]
                            for k in per_nation["c_nationkey"]]
    region_tot = per_nation.groupby("r_name")["revenue_cents"].sum().to_dict()
    per_nation["region_revenue_cents"] = \
        per_nation["r_name"].map(region_tot).astype("int64")
    per_nation["revenue_cents"] = per_nation["revenue_cents"].astype("int64")
    return per_nation[["r_name", "n_name", "revenue_cents",
                       "region_revenue_cents"]].reset_index(drop=True)


SQL_NATION_REVENUE_SHARE = """
WITH nr AS (
  SELECT n.n_nationkey, n.n_name, r.r_name,
         CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders o
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  JOIN region r ON n.n_regionkey = r.r_regionkey
  GROUP BY n.n_nationkey, n.n_name, r.r_name
)
SELECT r_name, n_name, revenue_cents,
       CAST(SUM(revenue_cents) OVER (PARTITION BY r_name) AS BIGINT)
         AS region_revenue_cents
FROM nr
"""


def build_queries_ext75() -> dict:
    return {
        "type_dwell_times": q_type_dwell_times,
        "nation_revenue_share": q_nation_revenue_share,
    }


def build_oracles_ext75() -> dict:
    return {
        "type_dwell_times": SQL_TYPE_DWELL_TIMES,
        "nation_revenue_share": SQL_NATION_REVENUE_SHARE,
    }
