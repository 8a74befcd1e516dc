"""Round-2 extension operators, batch 18: ratio-to-report + calendar.

* ``revenue_share_by_nation`` — ratio-to-report (each nation's share of
  total revenue): one co-partitioned dim-chain aggregate plus a
  broadcast O(1) global scalar; the share is the double division of two
  exact integer sums, identical on both sides.
* ``events_by_dow`` — calendar-function parity: ISO weekday from epoch
  microseconds by pure integer arithmetic ((days + 3) % 7 + 1 — epoch
  day 0 was a Thursday), aggregated map-side."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


def q_revenue_share_by_nation(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    import pyarrow.parquet as pq

    # dims are bounded: compose custkey -> nation name driver-side (the
    # established multi-way broadcast-join pattern)
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ck = cust.column("c_custkey").to_numpy().astype(np.int64)
    cn = cust.column("c_nationkey").to_numpy().astype(np.int64)
    order = np.argsort(ck)
    ck, cn = ck[order], cn[order]
    nk = nat.column("n_nationkey").to_numpy().astype(np.int64)
    nname = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    norder = np.argsort(nk)
    nk, nname = nk[norder], nname[norder]
    ck_ref, cn_ref = ray.put(ck), ray.put(cn)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        import ray

        cks, cns = ray.get(ck_ref), ray.get(cn_ref)
        cust_k = batch.column("o_custkey").to_numpy().astype(np.int64)
        nkey = cns[np.searchsorted(cks, cust_k)]
        return pa.table({
            "nationkey": pa.array(nkey, type=pa.int64()),
            "cents": pc.cast(
                pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)), pa.int64()
            ),
        })

    per_nation = grouped_aggregate(
        orders.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["nationkey"],
        [("sum", "cents", "revenue_cents")],
    ).to_pandas()  # O(nations)
    total = int(per_nation["revenue_cents"].sum())
    nkeys = per_nation["nationkey"].to_numpy().astype(np.int64)
    names = nname[np.searchsorted(nk, nkeys)]
    rev = per_nation["revenue_cents"].to_numpy().astype(np.int64)
    return pa.table({
        "n_name": pa.array(list(names), type=pa.string()),
        "revenue_cents": pa.array(rev, type=pa.int64()),
        "total_cents": pa.array(np.full(len(rev), total), type=pa.int64()),
        # double division of two exact ints — bit-identical both sides
        "share": pa.array(rev.astype(np.float64) / float(total), type=pa.float64()),
    })


SQL_REVENUE_SHARE_BY_NATION = """
    WITH r AS (
        SELECT n.n_name,
               SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS revenue_cents
        FROM orders o
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        GROUP BY n.n_name
    )
    SELECT n_name, CAST(revenue_cents AS BIGINT) AS revenue_cents,
           CAST(SUM(revenue_cents) OVER () AS BIGINT) AS total_cents,
           CAST(revenue_cents AS DOUBLE)
               / CAST(SUM(revenue_cents) OVER () AS DOUBLE) AS share
    FROM r
"""


def q_events_by_dow(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def keyed(batch: pa.Table) -> pa.Table:
        days = (
            batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
            // DAY_US
        )
        dow = (days + 3) % 7 + 1  # ISO: Mon=1..Sun=7; epoch day 0 = Thursday
        return pa.table({
            "dow": pa.array(dow, type=pa.int64()),
            "cents": pa.array(
                np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64),
                type=pa.int64(),
            ),
        })

    return grouped_aggregate(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["dow"],
        [("count", None, "n_events"), ("sum", "cents", "sum_value_cents")],
    )


SQL_EVENTS_BY_DOW = """
    SELECT CAST(isodow(ts) AS BIGINT) AS dow,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
               AS sum_value_cents
    FROM events GROUP BY 1
"""


def build_queries_ext17() -> dict:
    return {
        "revenue_share_by_nation": q_revenue_share_by_nation,
        "events_by_dow": q_events_by_dow,
    }


def build_oracles_ext17() -> dict:
    return {
        "revenue_share_by_nation": SQL_REVENUE_SHARE_BY_NATION,
        "events_by_dow": SQL_EVENTS_BY_DOW,
    }
