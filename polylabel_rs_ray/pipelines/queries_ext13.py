"""Round-2 extension operators, batch 14: relational completeness.

* ``grouping_sets_sales`` — arbitrary GROUP BY GROUPING SETS (not the
  rollup/cube lattices): the chosen coarser sets re-aggregate the
  |groups|-row finest level from one fact pass.
* ``user_second_event`` — NTH_VALUE per key (the 2nd event per user by
  time): partition-confined lexsort + run-offset pick, no per-user task.
* ``orders_above_cust_avg`` — decorrelated scalar subquery (each order
  vs its customer's average): per-customer sums co-partition back onto
  the orders by hash(custkey), and the predicate price > avg is
  evaluated as the EXACT integer cross-product price*n > sum (no float
  division anywhere).
* ``users_all_types`` — relational division (users who produced EVERY
  event type): distinct-pair dedup then a constant-size count filter."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

# --------------------------------------------------------------------------
# GROUPING SETS
# --------------------------------------------------------------------------


def q_grouping_sets_sales(sf_dir: str):
    from .queries import _sales_level0, _sales_mask_level

    level0 = _sales_level0(sf_dir).materialize()  # |groups| rows, reused
    lvl_rf = _sales_mask_level(level0, ["l_returnflag"])
    lvl_all = _sales_mask_level(level0, [])
    # sets: (rf, ls), (rf), () — deliberately NOT a rollup or cube lattice
    return level0.union(lvl_rf).union(lvl_all)


SQL_GROUPING_SETS_SALES = """
    SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
           COALESCE(l_linestatus, 'ALL') AS l_linestatus,
           SUM(l_quantity) AS sum_qty,
           CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT)
               AS revenue_cents,
           CAST(COUNT(*) AS BIGINT) AS n_items
    FROM lineitem
    GROUP BY GROUPING SETS ((l_returnflag, l_linestatus), (l_returnflag), ())
"""


# --------------------------------------------------------------------------
# NTH_VALUE per key
# --------------------------------------------------------------------------


def q_user_second_event(sf_dir: str, n_parts: int | None = None):
    from .queries_ext3 import _user_sorted_stream

    def second(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, eid = uid[order], eid[order]
        et = group.column("event_type")
        et = et.combine_chunks() if isinstance(et, pa.ChunkedArray) else et
        et = et.take(pa.array(order))
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        lens = np.diff(np.r_[starts, len(uid)])
        pick = starts[lens >= 2] + 1  # the user's 2nd row
        return pa.table({
            "user_id": pa.array(uid[pick], type=pa.int64()),
            "event_id": pa.array(eid[pick], type=pa.int64()),
            "event_type": et.take(pa.array(pick)),
        })

    return hash_exchange(_user_sorted_stream(sf_dir), "user_id", second, n_parts)


SQL_USER_SECOND_EVENT = """
    SELECT CAST(user_id AS BIGINT) AS user_id,
           CAST(event_id AS BIGINT) AS event_id, event_type
    FROM events
    QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) = 2
"""


# --------------------------------------------------------------------------
# decorrelated scalar subquery
# --------------------------------------------------------------------------


def q_orders_above_cust_avg(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def cents(batch: pa.Table) -> pa.Table:
        cust = batch.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
            "o_custkey": pa.array(cust, type=pa.int64()),
            "price_cents": pc.cast(
                pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
                pa.int64(),
            ),
        })

    keyed = ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    sums = grouped_aggregate(
        keyed,
        ["o_custkey"],
        [("sum", "price_cents", "sum_cents"), ("count", None, "n_orders")],
    )

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            if side == 0:
                return pa.table({
                    "o_custkey": batch.column("o_custkey"),
                    "o_orderkey": batch.column("o_orderkey"),
                    "price_cents": batch.column("price_cents"),
                    "sum_cents": pa.array(np.zeros(n, np.int64)),
                    "n_orders": pa.array(np.zeros(n, np.int64)),
                    "side": pa.array(np.zeros(n, np.int64)),
                })
            return pa.table({
                "o_custkey": batch.column("o_custkey"),
                "o_orderkey": pa.array(np.zeros(n, np.int64)),
                "price_cents": pa.array(np.zeros(n, np.int64)),
                "sum_cents": pc.cast(batch.column("sum_cents"), pa.int64()),
                "n_orders": pc.cast(batch.column("n_orders"), pa.int64()),
                "side": pa.array(np.ones(n, np.int64)),
            })

        return f

    unioned = keyed.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True).union(
        sums.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True)
    )

    def attach(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy().astype(np.int64)
        o = side == 0
        cust = group.column("o_custkey").to_numpy().astype(np.int64)
        cu = cust[~o]
        order = np.argsort(cu, kind="stable")
        cu = cu[order]
        sc = group.column("sum_cents").to_numpy().astype(np.int64)[~o][order]
        nn = group.column("n_orders").to_numpy().astype(np.int64)[~o][order]
        pos = np.searchsorted(cu, cust[o])
        price = group.column("price_cents").to_numpy().astype(np.int64)[o]
        okey = group.column("o_orderkey").to_numpy().astype(np.int64)[o]
        # price > avg  <=>  price * n > sum  (exact integers)
        keep = price * nn[pos] > sc[pos]
        return pa.table({
            "o_orderkey": pa.array(okey[keep], type=pa.int64()),
            "price_cents": pa.array(price[keep], type=pa.int64()),
        })

    return hash_exchange(unioned, "o_custkey", attach, n_parts)


SQL_ORDERS_ABOVE_CUST_AVG = """
    WITH c AS (
        SELECT o_custkey,
               SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS sum_cents,
               COUNT(*) AS n
        FROM orders GROUP BY o_custkey
    )
    SELECT CAST(o.o_orderkey AS BIGINT) AS o_orderkey,
           CAST(ROUND(o.o_totalprice*100) AS BIGINT) AS price_cents
    FROM orders o JOIN c USING (o_custkey)
    WHERE CAST(ROUND(o.o_totalprice*100) AS BIGINT) * c.n > c.sum_cents
"""


# --------------------------------------------------------------------------
# relational division
# --------------------------------------------------------------------------


def q_users_all_types(sf_dir: str):
    from .agg import grouped_aggregate
    from .queries import PIVOT_TYPES

    import ray
    K = len(PIVOT_TYPES)
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    pairs = grouped_aggregate(
        ds, ["user_id", "event_type"], [("count", None, "_n")]
    )
    counts = grouped_aggregate(pairs, ["user_id"], [("count", None, "n_types")])

    def full(batch: pa.Table) -> pa.Table:
        n = batch.column("n_types").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()).filter(
                pa.array(n == K)
            )
        })

    return counts.map_batches(full, batch_format="pyarrow", zero_copy_batch=True)


def _sql_users_all_types() -> str:
    from .queries import PIVOT_TYPES

    return f"""
        SELECT CAST(user_id AS BIGINT) AS user_id
        FROM events GROUP BY user_id
        HAVING COUNT(DISTINCT event_type) = {len(PIVOT_TYPES)}
    """


def build_queries_ext13() -> dict:
    return {
        "grouping_sets_sales": q_grouping_sets_sales,
        "user_second_event": q_user_second_event,
        "orders_above_cust_avg": q_orders_above_cust_avg,
        "users_all_types": q_users_all_types,
    }


def build_oracles_ext13() -> dict:
    return {
        "grouping_sets_sales": SQL_GROUPING_SETS_SALES,
        "user_second_event": SQL_USER_SECOND_EVENT,
        "orders_above_cust_avg": SQL_ORDERS_ABOVE_CUST_AVG,
        "users_all_types": _sql_users_all_types(),
    }
