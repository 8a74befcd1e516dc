"""Round-3 extension operators, batch 103: TPC-H Q10 and Q12 shapes.

``returned_item_revenue_q10`` — TPC-H Q10 adapted: revenue lost to
returns (``l_returnflag = 'R'``) per customer over a quarter of
orders, global top-20.  Distributed shape: orders (windowed, carrying
custkey) meet lineitem R-rows in ONE orderkey co-partition; each group
pre-combines revenue per custkey before the custkey hash-aggregate
(two exchanges total, both shrunk map-side).  Customer names attach
ONLY to the 20 winners via a key-filtered dimension read — at 10^12
rows the customer dim is itself a fact and must never broadcast whole.

``shipping_lag_q12`` — TPC-H Q12 adapted (no l_shipmode /
l_receiptdate): per shipping-lag bucket (<=30d, 31..90d, >90d after
the order date), how many lineitems belong to critical-priority orders
(1-URGENT / 2-HIGH) vs the rest — Q12's CASE-pivot aggregate over the
same single orderkey co-partition, emitting a bounded 3x2 table of
partials from every group.

Reference anchors: engine-level relational surface (SURVEY.md §2.3),
same family as ext60 (Q3/Q5) and ext102 (Q4/Q6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange
from .queries import _ts_us


_DAY_US = 86_400_000_000

Q10_LO = "1997-01-01"
Q10_HI = "1997-04-01"
Q10_TOPN = 20

Q12_BUCKET_1 = 30   # days
Q12_BUCKET_2 = 90


def q_returned_item_revenue_q10(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    lo_us, hi_us = _ts_us(Q10_LO), _ts_us(Q10_HI)

    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
        custk = batch.column("o_custkey").to_numpy().astype(np.int64)
        m = (date_us >= lo_us) & (date_us < hi_us)
        n = int(m.sum())
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey[m], type=pa.int64()),
            "payload": pa.array(custk[m], type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        flag_r = pc.equal(batch.column("l_returnflag"), "R")
        t = batch.filter(flag_r)
        okey = t.column("l_orderkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(t.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(t.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        rev = cents * (100 - disc)
        # per-batch partial: revenue per orderkey
        g = pa.table({
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "payload": pa.array(rev, type=pa.int64()),
        }).group_by(["o_orderkey"]).aggregate([("payload", "sum")])
        ok = g.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(ok)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": g.column("o_orderkey"),
            "payload": g.column("payload_sum"),
        })

    def cust_revenue(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("o_orderkey").to_numpy().astype(np.int64)
        pay = group.column("payload").to_numpy().astype(np.int64)
        is_ord = side == 1
        ok, ck = keys[is_ord], pay[is_ord]
        lk, rev = keys[~is_ord], pay[~is_ord]
        if len(ok) == 0 or len(lk) == 0:
            return pa.table({"c_custkey": pa.array([], type=pa.int64()),
                             "revenue_micro": pa.array([], type=pa.int64())})
        order = np.argsort(ok)
        ok_s, ck_s = ok[order], ck[order]
        pos = np.clip(np.searchsorted(ok_s, lk), 0, len(ok_s) - 1)
        hit = ok_s[pos] == lk
        cust = ck_s[pos[hit]]
        val = rev[hit]
        # pre-combine per custkey inside the partition
        g = pa.table({
            "c_custkey": pa.array(cust, type=pa.int64()),
            "revenue_micro": pa.array(val, type=pa.int64()),
        }).group_by(["c_custkey"]).aggregate([("revenue_micro", "sum")])
        return pa.table({
            "c_custkey": g.column("c_custkey"),
            "revenue_micro": g.column("revenue_micro_sum"),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    per_cust = grouped_aggregate(
        hash_exchange(li.union(od), "o_orderkey", cust_revenue, n_parts),
        ["c_custkey"], [("sum", "revenue_micro", "revenue_micro")],
    )
    top = per_cust.sort(["revenue_micro", "c_custkey"],
                        descending=[True, False]).limit(Q10_TOPN).to_pandas()

    # dimension attach for the bounded winner set only — the key-set
    # filter pushes down to parquet row groups, so the driver reads only
    # matching pages, never the whole fact-scaled customer table
    want = sorted(int(k) for k in top["c_custkey"].astype(np.int64))
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name", "c_nationkey"],
                         filters=[("c_custkey", "in", want)])
    dim = cust.to_pandas().set_index("c_custkey")
    top["c_name"] = top["c_custkey"].map(dim["c_name"]).astype(str)
    top["c_nationkey"] = top["c_custkey"].map(dim["c_nationkey"]) \
        .astype(np.int64)
    return top[["c_custkey", "c_name", "c_nationkey", "revenue_micro"]]


SQL_RETURNED_ITEM_REVENUE_Q10 = f"""
SELECT c.c_custkey, c.c_name,
       CAST(c.c_nationkey AS BIGINT) AS c_nationkey,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_micro
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE o.o_orderdate >= TIMESTAMP '{Q10_LO}'
  AND o.o_orderdate < TIMESTAMP '{Q10_HI}'
  AND l.l_returnflag = 'R'
GROUP BY c.c_custkey, c.c_name, c.c_nationkey
ORDER BY revenue_micro DESC, c.c_custkey ASC
LIMIT {Q10_TOPN}
"""


def q_shipping_lag_q12(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    b1_us, b2_us = Q12_BUCKET_1 * _DAY_US, Q12_BUCKET_2 * _DAY_US

    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
        prio = pc.utf8_slice_codeunits(
            pc.cast(batch.column("o_orderpriority"), pa.string()), 0, 1)
        crit = pc.is_in(prio, value_set=pa.array(["1", "2"])) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(okey)
        # pack (orderdate_us, crit) into one int64: date_us is day-aligned
        # and < 2^62; crit rides in the low bit (date_us is a multiple of
        # _DAY_US so bit 0 is free).
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "v": pa.array(date_us | crit, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "v": pa.array(ship, type=pa.int64()),
        })

    def lag_counts(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("o_orderkey").to_numpy().astype(np.int64)
        v = group.column("v").to_numpy().astype(np.int64)
        is_ord = side == 1
        ok, packed = keys[is_ord], v[is_ord]
        lk, ship = keys[~is_ord], v[~is_ord]
        empty = pa.table({
            "lag_bucket": pa.array([], type=pa.string()),
            "critical_lines": pa.array([], type=pa.int64()),
            "other_lines": pa.array([], type=pa.int64()),
        })
        if len(ok) == 0 or len(lk) == 0:
            return empty
        order = np.argsort(ok)
        ok_s = ok[order]
        packed_s = packed[order]
        pos = np.clip(np.searchsorted(ok_s, lk), 0, len(ok_s) - 1)
        hit = ok_s[pos] == lk
        pk = packed_s[pos[hit]]
        odate = pk & ~np.int64(1)
        crit = (pk & 1).astype(np.int64)
        lag = ship[hit] - odate
        bucket = np.where(lag <= b1_us, 0, np.where(lag <= b2_us, 1, 2))
        cnt = np.zeros((3, 2), dtype=np.int64)
        np.add.at(cnt, (bucket, crit), 1)
        names = ["0-30d", "31-90d", ">90d"]
        nz = [i for i in range(3) if cnt[i].sum()]
        return pa.table({
            "lag_bucket": pa.array([names[i] for i in nz],
                                   type=pa.string()),
            "critical_lines": pa.array([int(cnt[i, 1]) for i in nz],
                                       type=pa.int64()),
            "other_lines": pa.array([int(cnt[i, 0]) for i in nz],
                                    type=pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    return grouped_aggregate(
        hash_exchange(li.union(od), "o_orderkey", lag_counts, n_parts),
        ["lag_bucket"],
        [("sum", "critical_lines", "critical_lines"),
         ("sum", "other_lines", "other_lines")],
    ).sort("lag_bucket")


SQL_SHIPPING_LAG_Q12 = f"""
SELECT CASE
         WHEN l.l_shipdate <= o.o_orderdate + INTERVAL {Q12_BUCKET_1} DAY
           THEN '0-30d'
         WHEN l.l_shipdate <= o.o_orderdate + INTERVAL {Q12_BUCKET_2} DAY
           THEN '31-90d'
         ELSE '>90d'
       END AS lag_bucket,
       CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS critical_lines,
       CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS other_lines
FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY lag_bucket
ORDER BY lag_bucket
"""


def build_queries_ext103() -> dict:
    return {
        "returned_item_revenue_q10": q_returned_item_revenue_q10,
        "shipping_lag_q12": q_shipping_lag_q12,
    }


def build_oracles_ext103() -> dict:
    return {
        "returned_item_revenue_q10": SQL_RETURNED_ITEM_REVENUE_Q10,
        "shipping_lag_q12": SQL_SHIPPING_LAG_Q12,
    }
