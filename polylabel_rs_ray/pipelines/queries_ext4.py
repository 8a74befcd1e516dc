"""Round-2 extension operators, batch 5: relational/analytic widening.

* ``skyline_parts`` — Pareto frontier (skyline) over part (minimize
  price, maximize size) via the classic two-phase distributed skyline:
  per-block local skyline, then one exact pass over the tiny candidate
  union (skyline(union) is a subset of the union of local skylines).
* ``mode_event_type`` — per-user mode (most frequent event type) with a
  deterministic lexicographic tiebreak, as a packed-key distributed
  argmax (no per-group task).
* ``percent_rank_values`` — global PERCENT_RANK over a value column,
  collapsed to the distinct-value domain: one count-per-value aggregate
  plus an O(domain) driver prefix sum (the value domain is bounded by
  the price range — cents in [1, ~50k] — independent of row count).
* ``sliding_window_counts`` — hopping/sliding windows (1 h window,
  15 min hop): each event fans out to exactly width/hop = 4 windows via
  a vectorized repeat, then one grouped aggregate.
* ``cohort_retention`` — classic cohort analysis: users bucketed by
  first-seen day, activity counted at (cohort_day, day_offset).  Two
  streaming aggregates plus one co-partitioned hash join on user_id.
* ``nation_balance`` — FULL OUTER JOIN of two aggregates via indicator
  columns through a single shared groupby (zero-fill on absent sides).

Same contracts as ``queries.py``: arrow batches end-to-end, integer
cents for money, column names aliased identically to the SQL oracles."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

HOP_US = 900_000_000  # 15 min
WIN_HOPS = 4  # window width = 4 hops = 1 h
DAY_US = 86_400_000_000


# --------------------------------------------------------------------------
# skyline / Pareto frontier
# --------------------------------------------------------------------------


def _local_skyline(batch: pa.Table) -> pa.Table:
    """Exact skyline (min price_cents, max p_size) of one block, fully
    vectorized: sort by (price asc, size desc); a row survives iff it is
    its price-group's head size AND strictly exceeds the running size
    max of all strictly-cheaper rows.  Duplicate (price, size) points
    all survive (neither dominates the other — dominance is strict in
    at least one dimension), matching the NOT EXISTS oracle."""
    if batch.num_rows == 0:
        return batch
    p = batch.column("price_cents").to_numpy().astype(np.int64)
    s = batch.column("p_size").to_numpy().astype(np.int64)
    order = np.lexsort((-s, p))
    ps, ss = p[order], s[order]
    new = np.r_[True, ps[1:] != ps[:-1]]
    gid = np.cumsum(new) - 1
    head = ss[new][gid]  # per-group max size (desc within group)
    cmax = np.maximum.accumulate(ss)
    starts = np.flatnonzero(new)
    prev_max = np.r_[np.int64(-(2**62)), cmax[starts[1:] - 1]][gid]
    keep = (ss == head) & (ss > prev_max)
    return batch.take(pa.array(order[keep]))


def q_skyline_parts(sf_dir: str):
    """Distributed skyline: local skyline per block (each bounded by the
    number of distinct sizes), then one exact pass over the candidate
    union — candidates are O(skyline x blocks), tiny at any scale, so
    the final single-partition pass is not a bottleneck."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_size", "p_retailprice"]
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": pc.cast(batch.column("p_partkey"), pa.int64()),
            "p_size": pc.cast(batch.column("p_size"), pa.int64()),
            "price_cents": pc.cast(
                pc.round(pc.multiply(batch.column("p_retailprice"), 100.0)),
                pa.int64(),
            ),
        })

    local = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        _local_skyline, batch_format="pyarrow", zero_copy_batch=True
    )
    # candidate union is small by construction -> one exact final pass
    return local.repartition(1).map_batches(
        _local_skyline, batch_format="pyarrow", zero_copy_batch=True
    )


SQL_SKYLINE_PARTS = """
    WITH p AS (
        SELECT p_partkey, CAST(p_size AS BIGINT) AS p_size,
               CAST(ROUND(p_retailprice * 100) AS BIGINT) AS price_cents
        FROM part
    )
    SELECT a.p_partkey, a.p_size, a.price_cents
    FROM p a
    WHERE NOT EXISTS (
        SELECT 1 FROM p b
        WHERE b.price_cents <= a.price_cents AND b.p_size >= a.p_size
          AND (b.price_cents < a.price_cents OR b.p_size > a.p_size)
    )
"""


# --------------------------------------------------------------------------
# per-group mode (packed-key distributed argmax)
# --------------------------------------------------------------------------


def q_mode_event_type(sf_dir: str):
    """Most frequent event type per user, ties broken by lexicographically
    smallest type.  (user, type) counts via the map-side-combined
    aggregate, then the mode is a second aggregate over a packed
    (count, reversed-type-rank) int64 key — max(pack) decodes to
    (max count, smallest type).  No per-group task, two small shuffles."""
    from .agg import grouped_aggregate
    from .queries import PIVOT_TYPES

    import ray
    types = sorted(PIVOT_TYPES)
    K = len(types)
    type_arr = pa.array(types, type=pa.string())
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column("event_type"), type_arr)
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "tidx": pc.cast(idx, pa.int64()),
        })

    counts = grouped_aggregate(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "tidx"],
        [("count", None, "cnt")],
    )

    def pack(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt").to_numpy().astype(np.int64)
        tidx = batch.column("tidx").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "pack": pa.array(cnt * (K + 1) + (K - 1 - tidx), type=pa.int64()),
        })

    best = grouped_aggregate(
        counts.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("max", "pack", "best")],
    )

    def decode(batch: pa.Table) -> pa.Table:
        b = batch.column("best").to_numpy().astype(np.int64)
        cnt = b // (K + 1)
        tidx = K - 1 - (b % (K + 1))
        return pa.table({
            "user_id": batch.column("user_id"),
            "mode_type": type_arr.take(pa.array(tidx)),
            "n": pa.array(cnt, type=pa.int64()),
        })

    return best.map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)


SQL_MODE_EVENT_TYPE = """
    WITH c AS (
        SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
        FROM events GROUP BY user_id, event_type
    )
    SELECT CAST(user_id AS BIGINT) AS user_id, event_type AS mode_type, n
    FROM c
    QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY n DESC, event_type ASC) = 1
"""


# --------------------------------------------------------------------------
# global PERCENT_RANK over the distinct-value domain
# --------------------------------------------------------------------------


def q_percent_rank_values(sf_dir: str):
    """PERCENT_RANK of every distinct event value: (rows strictly below)
    / (N - 1), ties sharing a rank.  One count-per-cents aggregate
    (map-side combined), then an O(domain) driver prefix sum — the cents
    domain is bounded by the value range, not the row count, so the
    driver step stays constant-size as data grows.  The division is the
    same exact-int double division the oracle performs -> bit-equal."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "value_cents": pc.cast(
                pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
            )
        })

    per_value = (
        grouped_aggregate(
            ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
            ["value_cents"],
            [("count", None, "n")],
        )
        .to_pandas()  # O(cents domain) rows, bounded by the price range
        .sort_values("value_cents")
    )
    v = per_value["value_cents"].to_numpy().astype(np.int64)
    n = per_value["n"].to_numpy().astype(np.int64)
    below = np.cumsum(n) - n
    total = int(n.sum())
    return pa.table({
        "value_cents": pa.array(v, type=pa.int64()),
        "n": pa.array(n, type=pa.int64()),
        "pct_rank": pa.array(below.astype(np.float64) / float(total - 1),
                             type=pa.float64()),
    })


SQL_PERCENT_RANK_VALUES = """
    WITH g AS (
        SELECT CAST(ROUND(value * 100) AS BIGINT) AS value_cents,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM events GROUP BY 1
    )
    SELECT value_cents, n,
           CAST(SUM(n) OVER (ORDER BY value_cents ROWS UNBOUNDED PRECEDING) - n
                AS DOUBLE) / (SUM(n) OVER () - 1) AS pct_rank
    FROM g
"""


# --------------------------------------------------------------------------
# hopping / sliding windows
# --------------------------------------------------------------------------


def q_sliding_window_counts(sf_dir: str):
    """Sliding 1 h windows every 15 min: each event belongs to exactly
    width/hop = 4 windows, so the fan-out is a fixed-factor vectorized
    repeat inside map_batches (no self-join), followed by one grouped
    aggregate on the window start."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def fanout(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        cents = np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64)
        h = ts_us // HOP_US
        n = len(h)
        ws = (np.repeat(h, WIN_HOPS) - np.tile(np.arange(WIN_HOPS, dtype=np.int64), n)) * HOP_US
        return pa.table({
            "ws_us": pa.array(ws, type=pa.int64()),
            "value_cents": pa.array(np.repeat(cents, WIN_HOPS), type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(fanout, batch_format="pyarrow", zero_copy_batch=True),
        ["ws_us"],
        [("count", None, "n_events"), ("sum", "value_cents", "sum_value_cents")],
    )


SQL_SLIDING_WINDOW_COUNTS = """
    SELECT (epoch_us(ts) // 900000000 - j.j) * 900000000 AS ws_us,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
               AS sum_value_cents
    FROM events
    CROSS JOIN (SELECT UNNEST(generate_series(0, 3)) AS j) j
    GROUP BY 1
"""


# --------------------------------------------------------------------------
# cohort retention
# --------------------------------------------------------------------------


def q_cohort_retention(sf_dir: str, n_parts: int | None = None):
    """Cohort retention matrix: users bucketed by first-seen day, distinct
    active users counted at each (cohort_day, day_offset).  Front: one
    distinct-(user, day) aggregate + one first-day-per-user aggregate;
    the cohort attach is a co-partitioned hash join on user_id
    (searchsorted within each partition); the matrix itself is a final
    O(days^2)-sized aggregate."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def days(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = (
            batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
            // DAY_US
        )
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "day": pa.array(day, type=pa.int64()),
        })

    daily = ds.map_batches(days, batch_format="pyarrow", zero_copy_batch=True)
    # distinct (user, day) pairs — one per user-active-day
    active = grouped_aggregate(daily, ["user_id", "day"], [("count", None, "__n")])
    cohort = grouped_aggregate(daily, ["user_id"], [("min", "day", "cohort_day")])

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            uid = batch.column("user_id").to_numpy().astype(np.int64)
            day_col = "day" if side == 0 else "cohort_day"
            return pa.table({
                "user_id": pa.array(uid, type=pa.int64()),
                "day": pc.cast(batch.column(day_col), pa.int64()),
                "side": pa.array(np.full(len(uid), side, dtype=np.int64)),
            })

        return f

    unioned = (
        active.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True)
        .union(cohort.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True))
    )

    def attach(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        day = group.column("day").to_numpy().astype(np.int64)
        side = group.column("side").to_numpy().astype(np.int64)
        a = side == 0
        cu, cd = uid[~a], day[~a]
        order = np.argsort(cu, kind="stable")
        cu, cd = cu[order], cd[order]
        pos = np.searchsorted(cu, uid[a])
        cohort_day = cd[pos]  # every active user has a cohort row by construction
        off = day[a] - cohort_day
        return pa.table({
            "cohort_day": pa.array(cohort_day, type=pa.int64()),
            "day_offset": pa.array(off, type=pa.int64()),
        })

    joined = hash_exchange(unioned, "user_id", attach, n_parts)
    return grouped_aggregate(
        joined, ["cohort_day", "day_offset"], [("count", None, "n_users")]
    )


SQL_COHORT_RETENTION = """
    WITH d AS (
        SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day
        FROM events
    ),
    f AS (SELECT user_id, MIN(day) AS cohort_day FROM d GROUP BY user_id)
    SELECT CAST(f.cohort_day AS BIGINT) AS cohort_day,
           CAST(d.day - f.cohort_day AS BIGINT) AS day_offset,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM d JOIN f USING (user_id)
    GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# FULL OUTER JOIN of two aggregates (indicator-column union)
# --------------------------------------------------------------------------


def q_nation_balance(sf_dir: str):
    """Customers vs suppliers per nation with FULL OUTER semantics:
    each side streams through with indicator columns (its own count 1,
    the other side 0) into ONE shared groupby — absent sides zero-fill
    naturally, no join operator and no second shuffle."""
    from .agg import grouped_aggregate

    import ray
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_nationkey"])
    supp = ray.data.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_nationkey"])

    def ind(col: str, side: int):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "nationkey": pc.cast(batch.column(col), pa.int64()),
                "c_ind": pa.array(np.full(n, 1 - side, dtype=np.int64)),
                "s_ind": pa.array(np.full(n, side, dtype=np.int64)),
            })

        return f

    unioned = cust.map_batches(
        ind("c_nationkey", 0), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        supp.map_batches(ind("s_nationkey", 1), batch_format="pyarrow", zero_copy_batch=True)
    )
    return grouped_aggregate(
        unioned,
        ["nationkey"],
        [("sum", "c_ind", "n_customers"), ("sum", "s_ind", "n_suppliers")],
    )


SQL_NATION_BALANCE = """
    WITH c AS (
        SELECT c_nationkey AS nationkey, CAST(COUNT(*) AS BIGINT) AS n_customers
        FROM customer GROUP BY 1
    ),
    s AS (
        SELECT s_nationkey AS nationkey, CAST(COUNT(*) AS BIGINT) AS n_suppliers
        FROM supplier GROUP BY 1
    )
    SELECT CAST(COALESCE(c.nationkey, s.nationkey) AS BIGINT) AS nationkey,
           COALESCE(n_customers, 0) AS n_customers,
           COALESCE(n_suppliers, 0) AS n_suppliers
    FROM c FULL OUTER JOIN s ON c.nationkey = s.nationkey
"""


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def build_queries_ext4() -> dict:
    return {
        "skyline_parts": q_skyline_parts,
        "mode_event_type": q_mode_event_type,
        "percent_rank_values": q_percent_rank_values,
        "sliding_window_counts": q_sliding_window_counts,
        "cohort_retention": q_cohort_retention,
        "nation_balance": q_nation_balance,
    }


def build_oracles_ext4() -> dict:
    return {
        "skyline_parts": SQL_SKYLINE_PARTS,
        "mode_event_type": SQL_MODE_EVENT_TYPE,
        "percent_rank_values": SQL_PERCENT_RANK_VALUES,
        "sliding_window_counts": SQL_SLIDING_WINDOW_COUNTS,
        "cohort_retention": SQL_COHORT_RETENTION,
        "nation_balance": SQL_NATION_BALANCE,
    }
