"""Round-3 extension operators, batch 60: classic decision-support join
shapes (TPC-H Q3 / Q5 adaptations for this schema).

``shipping_priority_q3`` — segment-filtered customers semi-join orders,
orders inner-join lineitem under complementary date predicates
(``o_orderdate < D < l_shipdate``), revenue per order, global top-10.
The canonical "both join sides are filtered facts" shape: the
customer side reduces to a broadcast key SET (a semi-join filter — the
same small-side-keys-only trade the bloom join makes), while
orders x lineitem is fact x fact and goes through ONE co-partitioned
hash exchange on orderkey, then the per-order ``grouped_aggregate``.

``local_supplier_volume_q5`` — the Q5 star: region -> nation ->
supplier broadcast dims, customer attached through a co-partitioned
custkey exchange, lineitem attached through a co-partitioned orderkey
exchange, revenue kept only where the supplier nation equals the
customer nation.  Two exchanges total; every bounded dim ships once in
the stage closure, never per batch.

Both oracles are exact: revenue is the integer micro-revenue
``cents * (100 - disc_pct)`` and dates compare as epoch microseconds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange, n_partitions
from .queries import _ts_us


# Cut date shared by both Q3 predicates (orders before, shipments after).
Q3_CUT = "1998-06-01"
Q3_SEGMENT = "BUILDING"
# Q5 window: calendar year 1997, region ASIA.
Q5_LO = "1997-01-01"
Q5_HI = "1998-01-01"
Q5_REGION = "ASIA"

_DAY_US = 86_400_000_000


def _attach_inner(group: pa.Table, key: str) -> pa.Table:
    """Within one co-partition: INNER-join the unique-key dim side's payload
    onto the fact side (facts with no dim match are dropped — unlike
    ext37's ``_attach``, which assumes referential integrity, this is the
    filtered-dim case).  Fact columns are the ones fully valid on fact
    rows; everything else gathers from the dim side."""
    side = group.column("__side").to_numpy().astype(np.int64)
    keys = group.column(key).to_numpy().astype(np.int64)
    is_dim = side == 1
    dim_keys = keys[is_dim]
    order = np.argsort(dim_keys)
    dim_sorted = dim_keys[order]
    fact_keys = keys[~is_dim]
    if len(dim_sorted):
        pos = np.clip(np.searchsorted(dim_sorted, fact_keys), 0,
                      len(dim_sorted) - 1)
        hit = dim_sorted[pos] == fact_keys
        idx = order[pos[hit]]
    else:
        hit = np.zeros(len(fact_keys), dtype=bool)
        idx = np.empty(0, np.int64)
    dim_table = group.filter(pa.array(is_dim))
    fact_all = group.filter(pa.array(~is_dim))
    hit_arr = pa.array(hit)
    idx_arr = pa.array(idx, type=pa.int64())
    n_fact = len(fact_all)
    out = {}
    for name in group.column_names:
        if name == "__side":
            continue
        col = fact_all.column(name)
        if pc.count(col, mode="only_valid").as_py() == n_fact:
            out[name] = col.filter(hit_arr)
        else:
            out[name] = dim_table.column(name).take(idx_arr)
    return pa.table(out)


def q_shipping_priority_q3(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate
    from .factjoin import attach_fact_value

    import ray
    P = n_partitions(n_parts)
    cut_us = _ts_us(Q3_CUT)

    # semi-join side: the segment membership flag attaches to orders
    # through the broadcast customer lookup
    # (customer is fact-scaled; pipelines/factjoin.attach_fact_value)
    def orders_fact(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(batch.column("o_custkey"), pa.int64()),
            "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
            "order_date_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
        })

    ofact = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(orders_fact, batch_format="pyarrow", zero_copy_batch=True)
    flagged = attach_fact_value(
        sf_dir, "customer", "c_custkey", "c_mktsegment", ofact,
        ["o_orderkey", "order_date_us"], out_col="in_seg",
        side_val_fn=lambda a: (a == Q3_SEGMENT).astype(np.int64),
    )

    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = batch.column("order_date_us").to_numpy().astype(np.int64)
        in_seg = batch.column("in_seg").to_numpy().astype(np.int64) == 1
        m = in_seg & (date_us < cut_us)
        n = int(m.sum())
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey[m], type=pa.int64()),
            "revenue_micro": pa.nulls(n, type=pa.int64()),
            "order_date_us": pa.array(date_us[m], type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        ship_us = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        m = ship_us > cut_us
        n = int(m.sum())
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(okey[m], type=pa.int64()),
            "revenue_micro": pa.array(cents[m] * (100 - disc[m]),
                                      type=pa.int64()),
            "order_date_us": pa.nulls(n, type=pa.int64()),
        })

    od = flagged.map_batches(key_orders, batch_format="pyarrow",
                             zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_exchange(
        li.union(od), "o_orderkey", lambda g: _attach_inner(g, "o_orderkey"), P,
    )

    per_order = grouped_aggregate(
        joined,
        ["o_orderkey"],
        [("sum", "revenue_micro", "revenue_micro"),
         ("min", "order_date_us", "order_date_us")],
    )
    return per_order.sort(
        ["revenue_micro", "o_orderkey"], descending=[True, False]
    ).limit(10)


SQL_SHIPPING_PRIORITY_Q3 = f"""
SELECT o.o_orderkey,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_micro,
       CAST(epoch_us(MIN(o.o_orderdate)) AS BIGINT) AS order_date_us
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '{Q3_CUT}'
  AND l.l_shipdate > TIMESTAMP '{Q3_CUT}'
GROUP BY o.o_orderkey
ORDER BY revenue_micro DESC, o.o_orderkey ASC
LIMIT 10
"""


def q_local_supplier_volume_q5(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    lo_us, hi_us = _ts_us(Q5_LO), _ts_us(Q5_HI)

    # bounded dims, broadcast once: supplier -> nationkey; nations in region
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rkey = {n: k for k, n in zip(region.column("r_regionkey").to_pylist(),
                                 region.column("r_name").to_pylist())}[Q5_REGION]
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nk = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nreg = nation.column("n_regionkey").to_numpy().astype(np.int64)
    nname = np.array(nation.column("n_name").to_pylist(), dtype=object)
    in_region = dict(zip(nk.tolist(), (nreg == rkey).tolist()))
    name_of = dict(zip(nk.tolist(), nname.tolist()))

    supplier = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_nationkey"])
    sk = supplier.column("s_suppkey").to_numpy().astype(np.int64)
    s_order = np.argsort(sk)
    sk_sorted = sk[s_order]
    snk_sorted = supplier.column("s_nationkey").to_numpy().astype(
        np.int64)[s_order]

    # pass 1 (co-partition on custkey): window-filtered orders x customer
    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
        custk = batch.column("o_custkey").to_numpy().astype(np.int64)
        m = (date_us >= lo_us) & (date_us < hi_us)
        n = int(m.sum())
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "c_custkey": pa.array(custk[m], type=pa.int64()),
            "o_orderkey": pa.array(okey[m], type=pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
        })

    def key_cust(batch: pa.Table) -> pa.Table:
        custk = batch.column("c_custkey").to_numpy().astype(np.int64)
        n = len(custk)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "c_custkey": pa.array(custk, type=pa.int64()),
            "o_orderkey": pa.nulls(n, type=pa.int64()),
            "c_nationkey": pc.cast(batch.column("c_nationkey"), pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)

    pass1 = hash_exchange(
        od.union(cu), "c_custkey", lambda g: _attach_inner(g, "c_custkey"), n_parts,
    )

    # pass 2 (co-partition on orderkey): lineitem x (order -> cust nation)
    def rekey_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": batch.column("c_nationkey"),
            "l_suppkey": pa.nulls(n, type=pa.int64()),
            "revenue_micro": pa.nulls(n, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
            "l_suppkey": pc.cast(batch.column("l_suppkey"), pa.int64()),
            "revenue_micro": pa.array(cents * (100 - disc), type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    pass2 = hash_exchange(
        li.union(pass1.map_batches(rekey_orders, batch_format="pyarrow",
                                   zero_copy_batch=True)),
        "o_orderkey", lambda g: _attach_inner(g, "o_orderkey"), n_parts,
    )

    # local-supplier filter + bounded groupby: supplier nation == customer
    # nation AND that nation is in the target region
    region_nk = nk[nreg == rkey]
    region_mask_by_nk = np.zeros(int(nk.max()) + 1, dtype=bool)
    region_mask_by_nk[region_nk] = True

    def local_revenue(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "n_nationkey": pa.array([], type=pa.int64()),
                "revenue_micro": pa.array([], type=pa.int64()),
            })
        suppk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        cnk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        rev = batch.column("revenue_micro").to_numpy().astype(np.int64)
        snk = snk_sorted[np.searchsorted(sk_sorted, suppk)]
        m = (snk == cnk) & region_mask_by_nk[np.clip(cnk, 0,
                                                     len(region_mask_by_nk) - 1)]
        return pa.table({
            "n_nationkey": pa.array(cnk[m], type=pa.int64()),
            "revenue_micro": pa.array(rev[m], type=pa.int64()),
        })

    agg = grouped_aggregate(
        pass2.map_batches(local_revenue, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["n_nationkey"],
        [("sum", "revenue_micro", "revenue_micro")],
    )

    def attach_name(batch: pa.Table) -> pa.Table:
        keys = batch.column("n_nationkey").to_pylist()
        return pa.table({
            "n_name": pa.array([name_of[k] for k in keys], type=pa.string()),
            "revenue_micro": batch.column("revenue_micro"),
        })

    return agg.map_batches(attach_name, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_LOCAL_SUPPLIER_VOLUME_Q5 = f"""
SELECT n.n_name,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_micro
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE c.c_nationkey = s.s_nationkey
  AND r.r_name = '{Q5_REGION}'
  AND o.o_orderdate >= TIMESTAMP '{Q5_LO}'
  AND o.o_orderdate < TIMESTAMP '{Q5_HI}'
GROUP BY n.n_name
"""


def build_queries_ext60() -> dict:
    return {
        "shipping_priority_q3": q_shipping_priority_q3,
        "local_supplier_volume_q5": q_local_supplier_volume_q5,
    }


def build_oracles_ext60() -> dict:
    return {
        "shipping_priority_q3": SQL_SHIPPING_PRIORITY_Q3,
        "local_supplier_volume_q5": SQL_LOCAL_SUPPLIER_VOLUME_Q5,
    }
