"""Round-3 extension operators, batch 130: relational division — weekly
activity coverage + customer region coverage.

``users_every_week`` — relational division over TIME buckets: per
user, the number of distinct absolute weeks (``epoch_us //
7·86400e6``) with activity and whether it equals the corpus's
observed week count (the "active every week" divisor set).  Shape:
distinct (user, week) collapses map-side (weeks per user ≤ span), one
hash aggregate to per-user counts; the divisor |weeks| is a bounded
distinct fold.  Output keeps ALL users with their coverage (the
non-degenerate-both-ways discipline — an all-or-nothing result would
hide a broken divisor).

``customer_region_coverage`` — relational division through a join
chain: per customer, the bitmask and count of supplier REGIONS their
lineitems touch (lineitem → orders (orderkey→cust) → supplier →
nation → region), and the has-all-regions flag.  supplier/nation/
region broadcast once (tiny bounded dims); the orders FACT attaches
through the broadcast lookup (pipelines/factjoin.attach_order_custkey);
distinct (cust, region) collapses map-side, the mask is
Σ 2^region over the distinct pairs.  Oracle: joins + bit_or /
COUNT(DISTINCT).

Reference anchors: relational-division family (SURVEY.md §2.4);
siblings: users_all_types (division over types), revenue_by_region
(broadcast dim chain), global_sales_opportunity_q22 (anti-join
complement).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


WEEK_US = 7 * 86_400_000_000


# --------------------------------------------------------------------------
# users_every_week
# --------------------------------------------------------------------------


def q_users_every_week(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def pairs(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        wk = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // WEEK_US
        t = pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "week": pa.array(wk, type=pa.int64()),
        })
        out = t.group_by(["user_id", "week"]).aggregate([("week", "count")])
        return pa.table({
            "user_id": out.column("user_id"),
            "week": out.column("week"),
            "one": pa.array(np.ones(out.num_rows, dtype=np.int64)),
        })

    uw = grouped_aggregate(
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "week"], [("count", None, "n")],
    )

    # divisor: |distinct weeks| — bounded by the corpus span; folded
    # straight off the source read (cheaper than re-running the pair plan)
    def week_only(batch: pa.Table) -> pa.Table:
        wk = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // WEEK_US
        return pa.table({"week": pa.array(np.unique(wk), type=pa.int64())})

    weeks = grouped_aggregate(
        ds.map_batches(week_only, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["week"], [("count", None, "n")],
    ).to_pandas()
    n_weeks = len(weeks)

    def fold(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id"),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    per_user = grouped_aggregate(
        uw.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], [("sum", "one", "n_weeks")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        nw = batch.column("n_weeks").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "n_weeks": pa.array(nw, type=pa.int64()),
            "every_week": pa.array((nw == n_weeks).astype(np.int64),
                                   type=pa.int64()),
        })

    return per_user.map_batches(finish, batch_format="pyarrow",
                                zero_copy_batch=True)


SQL_USERS_EVERY_WEEK = f"""
WITH uw AS (
  SELECT DISTINCT user_id, epoch_us(ts) // {WEEK_US} AS week FROM events
), divisor AS (
  SELECT COUNT(DISTINCT week) AS w FROM uw
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_weeks,
       CAST(CASE WHEN COUNT(*) = (SELECT w FROM divisor)
                 THEN 1 ELSE 0 END AS BIGINT) AS every_week
FROM uw GROUP BY user_id
"""


# --------------------------------------------------------------------------
# customer_region_coverage
# --------------------------------------------------------------------------


def q_customer_region_coverage(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate
    from .factjoin import attach_fact_value, attach_order_custkey

    import ray
    # nation is a TRUE bounded dim (25 rows) — its nationkey -> regionkey
    # map closes over the side_val_fn; supplier scales at 10k rows/sf, so
    # its suppkey -> region attach goes through the broadcast fact join
    # (pipelines/factjoin.py), as does the orders attach below
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    nk = nat.column("n_nationkey").to_numpy().astype(np.int64)
    rk = nat.column("n_regionkey").to_numpy().astype(np.int64)
    norder = np.argsort(nk)
    nk, rk = nk[norder], rk[norder]

    def nation_to_region(arr: np.ndarray) -> np.ndarray:
        sn = arr.astype(np.int64)
        pos = np.clip(np.searchsorted(nk, sn), 0, max(len(nk) - 1, 0))
        if len(sn) and (not len(nk) or not np.all(nk[pos] == sn)):
            raise ValueError("FK violation: s_nationkey not in nation")
        return rk[pos]

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(batch.column("l_suppkey"), pa.int64()),
            "okey": pc.cast(batch.column("l_orderkey"), pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    fact = attach_fact_value(
        sf_dir, "supplier", "s_suppkey", "s_nationkey", ds, ["okey"],
        out_col="r", side_val_fn=nation_to_region,
    )
    joined = attach_order_custkey(sf_dir, fact, ["r"])

    # map-side distinct (c, r) collapse before the global aggregate
    def pairs(batch: pa.Table) -> pa.Table:
        out = batch.group_by(["c", "r"]).aggregate([("r", "count")])
        return pa.table({
            "c": out.column("c"),
            "r": out.column("r"),
            "one": pa.array(np.ones(out.num_rows, dtype=np.int64)),
        })

    # customer-grain keys (~150k x 5 at sf1)
    cr = grouped_aggregate(
        joined.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["c", "r"], [("count", None, "n")],
    )

    n_regions_total = len(set(rk.tolist()))

    def mask(batch: pa.Table) -> pa.Table:
        r = batch.column("r").to_numpy().astype(np.int64)
        return pa.table({
            "c_custkey": batch.column("c"),
            "bit": pa.array(np.int64(1) << r, type=pa.int64()),
            "one": pa.array(np.ones(len(r), dtype=np.int64)),
        })

    agg = grouped_aggregate(
        cr.map_batches(mask, batch_format="pyarrow", zero_copy_batch=True),
        ["c_custkey"],
        [("sum", "bit", "region_mask"), ("sum", "one", "n_regions")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        nr = batch.column("n_regions").to_numpy().astype(np.int64)
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "region_mask": batch.column("region_mask"),
            "n_regions": pa.array(nr, type=pa.int64()),
            "has_all": pa.array((nr == n_regions_total).astype(np.int64),
                                type=pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_CUSTOMER_REGION_COVERAGE = """
WITH cr AS (
  SELECT DISTINCT o.o_custkey AS c_custkey, n.n_regionkey AS r
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation n ON n.n_nationkey = s.s_nationkey
), divisor AS (
  SELECT COUNT(DISTINCT n_regionkey) AS nr FROM nation
)
SELECT c_custkey,
       CAST(SUM(1 << r) AS BIGINT) AS region_mask,
       CAST(COUNT(*) AS BIGINT) AS n_regions,
       CAST(CASE WHEN COUNT(*) = (SELECT nr FROM divisor)
                 THEN 1 ELSE 0 END AS BIGINT) AS has_all
FROM cr GROUP BY c_custkey
"""


def build_queries_ext130() -> dict:
    return {
        "users_every_week": q_users_every_week,
        "customer_region_coverage": q_customer_region_coverage,
    }


def build_oracles_ext130() -> dict:
    return {
        "users_every_week": SQL_USERS_EVERY_WEEK,
        "customer_region_coverage": SQL_CUSTOMER_REGION_COVERAGE,
    }
