"""Round-3 extension operators, batch 37: star-schema denormalization.

``denormalized_sales`` — the warehouse ETL flatten: every lineitem row
widened with its order, customer, nation, region, part and supplier
attributes — the materialization that feeds BI extracts and feature
stores.  Unlike the aggregate queries (revenue_by_region etc.) the
OUTPUT here is the full wide fact table, so the oracle value-hashes
every denormalized row.

Join strategy by table size — the decision a 100-TB run must make:

* ``orders`` and ``customer`` are fact-scaled -> two co-partitioned
  hash-join exchanges (facts and dim rows union into the same
  ``hash(key) % P`` partitions; one searchsorted attach per partition,
  Arrow ``take`` carries the string payloads zero-copy),
* ``nation`` / ``region`` / ``part`` / ``supplier`` are bounded dims ->
  broadcast once into the stage closure (never re-shipped per batch).

Exact integer conventions throughout (cents, discount-pct, epoch-us)
so the row hash matches SQL bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange, n_partitions


def _attach(group: pa.Table, key: str) -> pa.Table:
    """Within one co-partition: attach the (unique-key) dim side's payload
    columns to the fact side via one searchsorted.  A column belongs to the
    fact side iff it is fully valid on the fact rows (the union stage
    null-fills the other side's payloads)."""
    side = group.column("__side").to_numpy().astype(np.int64)
    keys = group.column(key).to_numpy().astype(np.int64)
    is_dim = side == 1
    dim_keys = keys[is_dim]
    order = np.argsort(dim_keys)
    dim_sorted = dim_keys[order]
    idx = (order[np.clip(np.searchsorted(dim_sorted, keys[~is_dim]), 0,
                         max(len(dim_sorted) - 1, 0))]
           if len(dim_sorted) else np.empty(0, np.int64))
    dim_table = group.filter(pa.array(is_dim))
    fact_table = group.filter(pa.array(~is_dim))
    out = {}
    for name in group.column_names:
        if name == "__side":
            continue
        col = fact_table.column(name)
        if pc.count(col, mode="only_valid").as_py() == len(fact_table):
            out[name] = col
        else:
            out[name] = dim_table.column(name).take(
                pa.array(idx, type=pa.int64())
            )
    return pa.table(out)


def q_denormalized_sales(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    import ray
    P = n_partitions(n_parts)

    # --- broadcast dims (bounded domains) --------------------------------
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name", "p_brand"])
    supplier = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_name"])

    rnames = dict(zip(region.column("r_regionkey").to_pylist(),
                      region.column("r_name").to_pylist()))
    n_key = nation.column("n_nationkey").to_numpy().astype(np.int64)
    n_name = np.array(nation.column("n_name").to_pylist(), dtype=object)
    n_region = np.array(
        [rnames[k] for k in nation.column("n_regionkey").to_pylist()],
        dtype=object,
    )
    n_order = np.argsort(n_key)
    n_key, n_name, n_region = n_key[n_order], n_name[n_order], n_region[n_order]

    p_key = part.column("p_partkey").to_numpy().astype(np.int64)
    p_order = np.argsort(p_key)
    p_key = p_key[p_order]
    p_name = np.array(part.column("p_name").to_pylist(), dtype=object)[p_order]
    p_brand = np.array(part.column("p_brand").to_pylist(), dtype=object)[p_order]

    s_key = supplier.column("s_suppkey").to_numpy().astype(np.int64)
    s_order = np.argsort(s_key)
    s_key = s_key[s_order]
    s_name = np.array(supplier.column("s_name").to_pylist(), dtype=object)[s_order]

    # --- join pass 1: lineitem + orders on orderkey ----------------------
    WIDE = {
        "l_orderkey": pa.int64(), "l_linenumber": pa.int64(),
        "l_partkey": pa.int64(), "l_suppkey": pa.int64(),
        "qty": pa.int64(), "price_cents": pa.int64(), "disc_pct": pa.int64(),
        "o_custkey": pa.int64(), "order_date_us": pa.int64(),
        "o_orderpriority": pa.string(),
        "c_mktsegment": pa.string(), "c_nationkey": pa.int64(),
    }

    def _null(n: int, typ) -> pa.Array:
        return pa.nulls(n, type=typ)

    def key_fact(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        cols = {
            "__side": pa.array(np.zeros(n, np.int64)),
            "l_orderkey": pa.array(okey, type=pa.int64()),
            "l_linenumber": pc.cast(batch.column("l_linenumber"), pa.int64()),
            "l_partkey": pc.cast(batch.column("l_partkey"), pa.int64()),
            "l_suppkey": pc.cast(batch.column("l_suppkey"), pa.int64()),
            "qty": pc.cast(pc.round(batch.column("l_quantity")), pa.int64()),
            "price_cents": pc.cast(
                pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
                pa.int64()),
            "disc_pct": pc.cast(
                pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
                pa.int64()),
        }
        for name in ("o_custkey", "order_date_us", "o_orderpriority",
                     "c_mktsegment", "c_nationkey"):
            cols[name] = _null(n, WIDE[name])
        return pa.table(cols)

    def key_orders(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        cols = {
            "__side": pa.array(np.ones(n, np.int64)),
            "l_orderkey": pa.array(okey, type=pa.int64()),
        }
        for name in ("l_linenumber", "l_partkey", "l_suppkey", "qty",
                     "price_cents", "disc_pct"):
            cols[name] = _null(n, WIDE[name])
        cols["o_custkey"] = pc.cast(batch.column("o_custkey"), pa.int64())
        cols["order_date_us"] = pc.cast(batch.column("o_orderdate"), pa.int64())
        cols["o_orderpriority"] = batch.column("o_orderpriority")
        cols["c_mktsegment"] = _null(n, pa.string())
        cols["c_nationkey"] = _null(n, pa.int64())
        return pa.table(cols)

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey",
                 "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(key_fact, batch_format="pyarrow", zero_copy_batch=True)
    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)

    pass1 = hash_exchange(
        li.union(od), "l_orderkey", lambda g: _attach(g, "l_orderkey"), P,
    )

    # --- join pass 2: + customer on custkey -------------------------------
    def rekey_cust(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return batch.append_column("__side", pa.array(np.zeros(n, np.int64)))

    def key_cust(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        cols = {}
        for name, typ in WIDE.items():
            cols[name] = _null(n, typ)
        cols["o_custkey"] = pa.array(ck, type=pa.int64())
        cols["c_mktsegment"] = batch.column("c_mktsegment")
        cols["c_nationkey"] = pc.cast(batch.column("c_nationkey"), pa.int64())
        cols["__side"] = pa.array(np.ones(n, np.int64))
        return pa.table(cols)

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment", "c_nationkey"],
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)

    pass2 = hash_exchange(
        pass1.map_batches(rekey_cust, batch_format="pyarrow",
                          zero_copy_batch=True).union(cust),
        "o_custkey", lambda g: _attach(g, "o_custkey"), P,
    )

    # --- broadcast attach: nation/region/part/supplier --------------------
    def widen(batch: pa.Table) -> pa.Table:
        nk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        pk = batch.column("l_partkey").to_numpy().astype(np.int64)
        sk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        ni = np.searchsorted(n_key, nk)
        pi = np.searchsorted(p_key, pk)
        si = np.searchsorted(s_key, sk)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "l_linenumber": batch.column("l_linenumber"),
            "qty": batch.column("qty"),
            "price_cents": batch.column("price_cents"),
            "disc_pct": batch.column("disc_pct"),
            "order_date_us": batch.column("order_date_us"),
            "o_orderpriority": batch.column("o_orderpriority"),
            "c_mktsegment": batch.column("c_mktsegment"),
            "nation_name": pa.array(n_name[ni].tolist(), type=pa.string()),
            "region_name": pa.array(n_region[ni].tolist(), type=pa.string()),
            "part_name": pa.array(p_name[pi].tolist(), type=pa.string()),
            "part_brand": pa.array(p_brand[pi].tolist(), type=pa.string()),
            "supplier_name": pa.array(s_name[si].tolist(), type=pa.string()),
        })

    return pass2.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True)


SQL_DENORMALIZED_SALES = """
SELECT l.l_orderkey,
       CAST(l.l_linenumber AS BIGINT) AS l_linenumber,
       CAST(ROUND(l.l_quantity) AS BIGINT) AS qty,
       CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS price_cents,
       CAST(ROUND(l.l_discount * 100) AS BIGINT) AS disc_pct,
       CAST(epoch_us(o.o_orderdate) AS BIGINT) AS order_date_us,
       o.o_orderpriority,
       c.c_mktsegment,
       n.n_name AS nation_name,
       r.r_name AS region_name,
       p.p_name AS part_name,
       p.p_brand AS part_brand,
       s.s_name AS supplier_name
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
JOIN part p ON l.l_partkey = p.p_partkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
"""


def build_queries_ext37() -> dict:
    return {"denormalized_sales": q_denormalized_sales}


def build_oracles_ext37() -> dict:
    return {"denormalized_sales": SQL_DENORMALIZED_SALES}
