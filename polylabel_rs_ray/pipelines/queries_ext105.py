"""Round-3 extension operators, batch 105: TPC-H Q21 and Q20 shapes.

``order_waiting_q21`` — TPC-H Q21 adapted to this schema (no
commit/receipt dates): among finished orders (``o_orderstatus='F'``)
touched by at least two distinct suppliers, credit the supplier who was
the ONLY late one (late = that supplier's latest shipment for the order
left more than ``Q21_LATE_DAYS`` days after the order date).  The
classic "EXISTS another supplier / NOT EXISTS another late supplier"
double-correlated shape collapses into ONE orderkey co-partition: the
lineitem side pre-combines to per-(order, supplier) max-shipdate
partials inside each batch, the orders side ships (orderkey,
orderdate), and the per-order supplier census (n distinct, n late, the
lone late supplier) is a vectorized searchsorted pass inside each
partition.  The per-supplier tally rides the existing map-side-combine
``grouped_aggregate``; supplier names are a 10-row broadcast.

``dominant_part_suppliers_q20`` — TPC-H Q20 adapted (no partsupp
availqty): a supplier "dominates" a part when its shipped quantity
exceeds 1.5x the even share (``qty * n_suppliers * 2 > total * 3``,
exact int64 — the Q11 scale-free-threshold lesson: a fixed 50% share
never fires when ~10 suppliers split every part evenly, measured 0
pairs at sf0.001 vs 385 with the relative threshold).  One partkey
hash exchange over per-batch (part, supplier) quantity partials;
per-part totals and the dominance flag are one segmented reduction per
partition; the per-supplier count is a bounded final aggregate.

Reference anchors: engine-level relational surface (SURVEY.md §2.3);
completes the TPC-H join-shape family (Q1,Q3-Q19,Q22 elsewhere —
COVERAGE.md maps each).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange, n_partitions


Q21_LATE_DAYS = 60
Q21_STATUS = "F"

_DAY_US = 86_400_000_000


def _supplier_names(sf_dir: str) -> dict[int, str]:
    import pyarrow.parquet as pq

    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name"])
    return dict(zip(
        supp.column("s_suppkey").to_numpy().astype(np.int64).tolist(),
        supp.column("s_name").to_pylist()))


def q_order_waiting_q21(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    P = n_partitions(n_parts)
    names = _supplier_names(sf_dir)

    def key_orders(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch.column("o_orderstatus"), Q21_STATUS)
        t = batch.filter(m)
        okey = t.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = pc.cast(t.column("o_orderdate"), pa.int64()).to_numpy()
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "a": pa.array(date_us, type=pa.int64()),
            "b": pa.nulls(n, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        sk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        ship_us = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
        # per-batch partial: latest shipment per (order, supplier)
        g = pa.table({
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "a": pa.array(sk, type=pa.int64()),
            "b": pa.array(ship_us, type=pa.int64()),
        }).group_by(["o_orderkey", "a"]).aggregate([("b", "max")])
        n = len(g)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": g.column("o_orderkey"),
            "a": g.column("a"),
            "b": g.column("b_max"),
        })

    cutoff_us = Q21_LATE_DAYS * _DAY_US

    def lone_late_partials(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("o_orderkey").to_numpy().astype(np.int64)
        a = group.column("a").to_numpy(zero_copy_only=False)
        b = group.column("b").to_numpy(zero_copy_only=False)
        is_ord = side == 1
        ok = keys[is_ord]
        odate = a[is_ord].astype(np.int64)
        lk = keys[~is_ord]
        sk = a[~is_ord].astype(np.int64)
        maxship = b[~is_ord].astype(np.int64)
        empty = pa.table({
            "s_suppkey": pa.array([], type=pa.int64()),
            "numwait": pa.array([], type=pa.int64()),
        })
        if len(ok) == 0 or len(lk) == 0:
            return empty
        order = np.argsort(ok)
        ok_s, od_s = ok[order], odate[order]
        pos = np.clip(np.searchsorted(ok_s, lk), 0, len(ok_s) - 1)
        hit = ok_s[pos] == lk  # drops P/O-status orders' lineitems
        lk, sk, maxship = lk[hit], sk[hit], maxship[hit]
        if len(lk) == 0:
            return empty
        late = maxship > od_s[pos[hit]] + cutoff_us
        # per-order census over the combined (order, supplier) partials —
        # the map-side group_by made (lk, sk) unique per input block, but
        # several blocks may contribute the same pair; re-combine first.
        g = pa.table({
            "k": pa.array(lk, type=pa.int64()),
            "s": pa.array(sk, type=pa.int64()),
            "late": pa.array(late.astype(np.int64), type=pa.int64()),
        }).group_by(["k", "s"]).aggregate([("late", "max")])
        gk = g.column("k").to_numpy().astype(np.int64)
        gs = g.column("s").to_numpy().astype(np.int64)
        gl = g.column("late_max").to_numpy().astype(np.int64)
        o2 = np.argsort(gk, kind="stable")
        gk, gs, gl = gk[o2], gs[o2], gl[o2]
        starts = np.flatnonzero(np.r_[True, gk[1:] != gk[:-1]])
        seg = np.r_[starts, len(gk)]
        ns = np.diff(seg)  # distinct suppliers per order
        nl = np.add.reduceat(gl, starts) if len(gk) else np.empty(0, np.int64)
        lone_mask = (ns >= 2) & (nl == 1)
        if not lone_mask.any():
            return empty
        # the lone late supplier: a lone segment has exactly one late
        # element, so one flat mask picks it — no per-order loop
        seg_id = np.cumsum(np.r_[0, (gk[1:] != gk[:-1]).astype(np.int64)])
        late_pos = np.flatnonzero(gl == 1)
        sel = lone_mask[seg_id[late_pos]]
        lone_sk = gs[late_pos[sel]]
        u, cnt = np.unique(lone_sk, return_counts=True)
        return pa.table({
            "s_suppkey": pa.array(u, type=pa.int64()),
            "numwait": pa.array(cnt.astype(np.int64), type=pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    summed = grouped_aggregate(
        hash_exchange(li.union(od), "o_orderkey", lone_late_partials, P),
        ["s_suppkey"],
        [("sum", "numwait", "numwait")],
    )

    def decode(batch: pa.Table) -> pa.Table:
        skv = batch.column("s_suppkey").to_numpy().astype(np.int64)
        return pa.table({
            "s_name": pa.array([names[int(k)] for k in skv],
                               type=pa.string()),
            "numwait": batch.column("numwait"),
        })

    return summed.map_batches(decode, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .sort(["numwait", "s_name"], descending=[True, False])


SQL_ORDER_WAITING_Q21 = f"""
WITH pair AS (
  SELECT l.l_orderkey AS ok, l.l_suppkey AS sk,
         MAX(epoch_us(l.l_shipdate)) AS max_ship,
         MIN(epoch_us(o.o_orderdate)) AS odate
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE o.o_orderstatus = '{Q21_STATUS}'
  GROUP BY 1, 2
),
census AS (
  SELECT ok, COUNT(*) AS ns,
         SUM(CASE WHEN max_ship > odate + {Q21_LATE_DAYS}*{_DAY_US}::BIGINT
                  THEN 1 ELSE 0 END) AS nl,
         MAX(CASE WHEN max_ship > odate + {Q21_LATE_DAYS}*{_DAY_US}::BIGINT
                  THEN sk END) AS lone_sk
  FROM pair GROUP BY ok
)
SELECT s.s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM census c JOIN supplier s ON s.s_suppkey = c.lone_sk
WHERE c.ns >= 2 AND c.nl = 1
GROUP BY s.s_name
ORDER BY numwait DESC, s.s_name
"""


def q_dominant_part_suppliers_q20(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    names = _supplier_names(sf_dir)

    def key_lineitem(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy().astype(np.int64)
        sk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        qty = pc.cast(pc.round(batch.column("l_quantity")),
                      pa.int64()).to_numpy()
        g = pa.table({
            "l_partkey": pa.array(pk, type=pa.int64()),
            "l_suppkey": pa.array(sk, type=pa.int64()),
            "qty": pa.array(qty, type=pa.int64()),
        }).group_by(["l_partkey", "l_suppkey"]).aggregate([("qty", "sum")])
        return pa.table({
            "l_partkey": g.column("l_partkey"),
            "l_suppkey": g.column("l_suppkey"),
            "qty": g.column("qty_sum"),
        })

    def dominant_partials(group: pa.Table) -> pa.Table:
        # finish the (part, supplier) combine for this key range, then one
        # segmented pass computes per-part totals + the dominance flag
        g = group.group_by(["l_partkey", "l_suppkey"]).aggregate(
            [("qty", "sum")])
        pk = g.column("l_partkey").to_numpy().astype(np.int64)
        sk = g.column("l_suppkey").to_numpy().astype(np.int64)
        q = g.column("qty_sum").to_numpy().astype(np.int64)
        empty = pa.table({
            "s_suppkey": pa.array([], type=pa.int64()),
            "n_dominant_parts": pa.array([], type=pa.int64()),
        })
        if len(pk) == 0:
            return empty
        order = np.argsort(pk, kind="stable")
        pk, sk, q = pk[order], sk[order], q[order]
        starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        totals = np.add.reduceat(q, starts)
        nsupp = np.diff(np.r_[starts, len(pk)])
        seg_id = np.cumsum(np.r_[0, (pk[1:] != pk[:-1]).astype(np.int64)])
        # dominance: share > 1.5/nsupp, exact int64 cross-multiplication
        dom = (nsupp[seg_id] >= 2) & \
            (q * nsupp[seg_id] * 2 > totals[seg_id] * 3)
        if not dom.any():
            return empty
        u, cnt = np.unique(sk[dom], return_counts=True)
        return pa.table({
            "s_suppkey": pa.array(u, type=pa.int64()),
            "n_dominant_parts": pa.array(cnt.astype(np.int64),
                                         type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    summed = grouped_aggregate(
        hash_exchange(li, "l_partkey", dominant_partials, n_parts),
        ["s_suppkey"],
        [("sum", "n_dominant_parts", "n_dominant_parts")],
    )

    def decode(batch: pa.Table) -> pa.Table:
        skv = batch.column("s_suppkey").to_numpy().astype(np.int64)
        return pa.table({
            "s_name": pa.array([names[int(k)] for k in skv],
                               type=pa.string()),
            "n_dominant_parts": batch.column("n_dominant_parts"),
        })

    return summed.map_batches(decode, batch_format="pyarrow",
                              zero_copy_batch=True).sort("s_name")


SQL_DOMINANT_PART_SUPPLIERS_Q20 = """
WITH ps AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
  FROM lineitem GROUP BY 1, 2
),
t AS (
  SELECT pk, SUM(q) AS tq, COUNT(*) AS nsupp FROM ps GROUP BY pk
)
SELECT s.s_name,
       CAST(COUNT(*) AS BIGINT) AS n_dominant_parts
FROM ps JOIN t USING (pk)
JOIN supplier s ON s.s_suppkey = ps.sk
WHERE t.nsupp >= 2 AND ps.q * t.nsupp * 2 > t.tq * 3
GROUP BY s.s_name
ORDER BY s.s_name
"""


def build_queries_ext105() -> dict:
    return {
        "order_waiting_q21": q_order_waiting_q21,
        "dominant_part_suppliers_q20": q_dominant_part_suppliers_q20,
    }


def build_oracles_ext105() -> dict:
    return {
        "order_waiting_q21": SQL_ORDER_WAITING_Q21,
        "dominant_part_suppliers_q20": SQL_DOMINANT_PART_SUPPLIERS_Q20,
    }
