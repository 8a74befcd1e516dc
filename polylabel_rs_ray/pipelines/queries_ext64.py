"""Round-3 extension operators, batch 64: distinct-count-per-attribute
and nation-pair trade shapes (TPC-H Q16 / Q7 adaptations).

``parts_supplier_counts_q16`` — how many DISTINCT suppliers ship each
(brand, type, size) part class, excluding one brand, a size whitelist,
and suppliers on a blocklist (negative account balance — the
"complaints" analogue).  The two-level distinct: (partkey, suppkey)
pairs dedup through one high-cardinality hash exchange, part
attributes broadcast-attach, then (brand, type, size, suppkey)
dedups AGAIN (one supplier shipping many same-class parts counts
once) before the bounded class-level count.  The blocklist is a
bounded dim set shipped once.

``nation_trade_volume_q7`` — revenue flowing between two named
nations by ship year and direction (supp_nation -> cust_nation).  The
Q5 machinery with a composite bounded group key: customer nation
attaches through a co-partitioned custkey exchange, lineitem through a
co-partitioned orderkey exchange, supplier nation broadcasts, and the
(supp_nation, cust_nation, year) aggregate is bounded (2 x years).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


Q16_EXCLUDE_BRAND = "Brand#13"
Q16_SIZES = (1, 5, 10, 15, 20, 25)
Q7_NATION_A = "NATION_3"
Q7_NATION_B = "NATION_8"
Q7_LO = "1996-01-01"
Q7_HI = "1998-01-01"

_YEAR_ANCHORS_US = None


def q_parts_supplier_counts_q16(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_type", "p_size"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    order = np.argsort(pk)
    pk = pk[order]
    brand = np.array(part.column("p_brand").to_pylist(), dtype=object)[order]
    ptype = np.array(part.column("p_type").to_pylist(), dtype=object)[order]
    size = part.column("p_size").to_numpy().astype(np.int64)[order]
    size_ok = np.isin(size, np.array(Q16_SIZES, dtype=np.int64))
    class_ok = (brand != Q16_EXCLUDE_BRAND) & size_ok

    supplier = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_acctbal"])
    bad = pc.less(supplier.column("s_acctbal"), 0.0).to_numpy(
        zero_copy_only=False)
    blocked = np.sort(
        supplier.column("s_suppkey").to_numpy().astype(np.int64)[bad])

    def pair_cols(batch: pa.Table) -> pa.Table:
        ppk = batch.column("l_partkey").to_numpy().astype(np.int64)
        sk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        # prune early: only whitelisted part classes and unblocked suppliers
        pos = np.searchsorted(pk, ppk)
        keep = class_ok[pos]
        if len(blocked):
            bpos = np.clip(np.searchsorted(blocked, sk), 0, len(blocked) - 1)
            keep &= blocked[bpos] != sk
        return pa.table({
            "l_partkey": pa.array(ppk[keep], type=pa.int64()),
            "l_suppkey": pa.array(sk[keep], type=pa.int64()),
        })

    pairs = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_suppkey"])
        .map_batches(pair_cols, batch_format="pyarrow", zero_copy_batch=True),
        ["l_partkey", "l_suppkey"],
        [("count", None, "_n")],
    )

    # integer class ids from the broadcast part table: dedup and count on
    # ints, attach the (brand, type, size) labels only at the very end
    class_key = np.array(
        [f"{b}\x00{t}\x00{s}" for b, t, s in zip(brand, ptype, size)],
        dtype=object)
    uniq_classes, class_id_of_part = np.unique(class_key, return_inverse=True)
    cls_rows = {}
    for cid in range(len(uniq_classes)):
        b, t, s = uniq_classes[cid].split("\x00")
        cls_rows[cid] = (b, t, int(s))

    # second distinct level: one supplier shipping several same-class parts
    # still counts once per (brand, type, size)
    def attach_class(batch: pa.Table) -> pa.Table:
        ppk = batch.column("l_partkey").to_numpy().astype(np.int64)
        pos = np.searchsorted(pk, ppk)
        return pa.table({
            "class_id": pa.array(class_id_of_part[pos], type=pa.int64()),
            "l_suppkey": batch.column("l_suppkey"),
        })

    class_supp = grouped_aggregate(
        pairs.map_batches(attach_class, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["class_id", "l_suppkey"],
        [("count", None, "_n")],
    )

    counts = grouped_aggregate(
        class_supp.select_columns(["class_id"]),
        ["class_id"],
        [("count", None, "supplier_cnt")],
    )

    def label(batch: pa.Table) -> pa.Table:
        cids = batch.column("class_id").to_pylist()
        return pa.table({
            "p_brand": pa.array([cls_rows[c][0] for c in cids],
                                type=pa.string()),
            "p_type": pa.array([cls_rows[c][1] for c in cids],
                               type=pa.string()),
            "p_size": pa.array([cls_rows[c][2] for c in cids],
                               type=pa.int64()),
            "supplier_cnt": batch.column("supplier_cnt"),
        })

    return counts.map_batches(label, batch_format="pyarrow",
                              zero_copy_batch=True)


SQL_PARTS_SUPPLIER_COUNTS_Q16 = f"""
SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) l
JOIN part p ON l.l_partkey = p.p_partkey
WHERE p.p_brand <> '{Q16_EXCLUDE_BRAND}'
  AND p.p_size IN {Q16_SIZES}
  AND l.l_suppkey NOT IN (
    SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY p.p_brand, p.p_type, p.p_size
"""


def q_nation_trade_volume_q7(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    from .queries_ext60 import _attach_inner

    import ray
    lo = int(np.datetime64(Q7_LO, "us").astype(np.int64))
    hi = int(np.datetime64(Q7_HI, "us").astype(np.int64))

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    nk = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nname = np.array(nation.column("n_name").to_pylist(), dtype=object)
    key_a = int(nk[nname == Q7_NATION_A][0])
    key_b = int(nk[nname == Q7_NATION_B][0])
    name_of = dict(zip(nk.tolist(), nname.tolist()))

    supplier = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_nationkey"])
    sk = supplier.column("s_suppkey").to_numpy().astype(np.int64)
    s_order = np.argsort(sk)
    sk_sorted = sk[s_order]
    snk_sorted = supplier.column("s_nationkey").to_numpy().astype(
        np.int64)[s_order]

    # year boundaries in epoch-us (bounded table, computed driver-side once)
    years = list(range(int(Q7_LO[:4]), int(Q7_HI[:4]) + 1))
    anchors = np.array([int(np.datetime64(f"{y}-01-01", "us").astype(np.int64))
                        for y in years], dtype=np.int64)

    # pass 1 (custkey): orders x customer -> (o_orderkey, c_nationkey);
    # only customers of the two target nations survive
    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        custk = batch.column("o_custkey").to_numpy().astype(np.int64)
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "c_custkey": pa.array(custk, type=pa.int64()),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
        })

    def key_cust(batch: pa.Table) -> pa.Table:
        custk = batch.column("c_custkey").to_numpy().astype(np.int64)
        cnk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        m = (cnk == key_a) | (cnk == key_b)
        n = int(m.sum())
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "c_custkey": pa.array(custk[m], type=pa.int64()),
            "o_orderkey": pa.nulls(n, type=pa.int64()),
            "c_nationkey": pa.array(cnk[m], type=pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)

    pass1 = hash_exchange(
        od.union(cu), "c_custkey", lambda g: _attach_inner(g, "c_custkey"), n_parts,
    )

    # pass 2 (orderkey): windowed lineitem x pass1
    def rekey_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": batch.column("c_nationkey"),
            "l_suppkey": pa.nulls(n, type=pa.int64()),
            "revenue_micro": pa.nulls(n, type=pa.int64()),
            "ship_us": pa.nulls(n, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
        m = (ship >= lo) & (ship < hi)
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)[m]
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()[m]
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()[m]
        suppk = batch.column("l_suppkey").to_numpy().astype(np.int64)[m]
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
            "l_suppkey": pa.array(suppk, type=pa.int64()),
            "revenue_micro": pa.array(cents * (100 - disc), type=pa.int64()),
            "ship_us": pa.array(ship[m], type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    pass2 = hash_exchange(
        li.union(pass1.map_batches(rekey_orders, batch_format="pyarrow",
                                   zero_copy_batch=True)),
        "o_orderkey", lambda g: _attach_inner(g, "o_orderkey"), n_parts,
    )

    # broadcast supplier nation; keep the two cross directions; bucket year
    def direction(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "supp_nation": pa.array([], type=pa.int64()),
                "cust_nation": pa.array([], type=pa.int64()),
                "l_year": pa.array([], type=pa.int64()),
                "revenue_micro": pa.array([], type=pa.int64()),
            })
        suppk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        cnk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        rev = batch.column("revenue_micro").to_numpy().astype(np.int64)
        ship = batch.column("ship_us").to_numpy().astype(np.int64)
        snk = snk_sorted[np.searchsorted(sk_sorted, suppk)]
        m = ((snk == key_a) & (cnk == key_b)) | ((snk == key_b) & (cnk == key_a))
        year_idx = np.searchsorted(anchors, ship[m], side="right") - 1
        return pa.table({
            "supp_nation": pa.array(snk[m], type=pa.int64()),
            "cust_nation": pa.array(cnk[m], type=pa.int64()),
            "l_year": pa.array(np.array(years, dtype=np.int64)[year_idx],
                               type=pa.int64()),
            "revenue_micro": pa.array(rev[m], type=pa.int64()),
        })

    agg = grouped_aggregate(
        pass2.map_batches(direction, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["supp_nation", "cust_nation", "l_year"],
        [("sum", "revenue_micro", "revenue_micro")],
    )

    def names(batch: pa.Table) -> pa.Table:
        s = [name_of[k] for k in batch.column("supp_nation").to_pylist()]
        c = [name_of[k] for k in batch.column("cust_nation").to_pylist()]
        return pa.table({
            "supp_nation": pa.array(s, type=pa.string()),
            "cust_nation": pa.array(c, type=pa.string()),
            "l_year": batch.column("l_year"),
            "revenue_micro": batch.column("revenue_micro"),
        })

    return agg.map_batches(names, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_NATION_TRADE_VOLUME_Q7 = f"""
SELECT ns.n_name AS supp_nation,
       nc.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_micro
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation ns ON s.s_nationkey = ns.n_nationkey
JOIN nation nc ON c.c_nationkey = nc.n_nationkey
WHERE l.l_shipdate >= TIMESTAMP '{Q7_LO}'
  AND l.l_shipdate < TIMESTAMP '{Q7_HI}'
  AND ((ns.n_name = '{Q7_NATION_A}' AND nc.n_name = '{Q7_NATION_B}')
    OR (ns.n_name = '{Q7_NATION_B}' AND nc.n_name = '{Q7_NATION_A}'))
GROUP BY ns.n_name, nc.n_name, l_year
"""


def build_queries_ext64() -> dict:
    return {
        "parts_supplier_counts_q16": q_parts_supplier_counts_q16,
        "nation_trade_volume_q7": q_nation_trade_volume_q7,
    }


def build_oracles_ext64() -> dict:
    return {
        "parts_supplier_counts_q16": SQL_PARTS_SUPPLIER_COUNTS_Q16,
        "nation_trade_volume_q7": SQL_NATION_TRADE_VOLUME_Q7,
    }
