"""Fact-to-fact key attach with a size-gated join strategy.

``attach_fact_value`` joins a fact dataset (keyed by an int64 ``key``
column) against another FACT-SCALED table to attach one int64 value
column — the recurring hop of the TPC-H-shape rollups (lineitem →
orders for o_custkey, orders → customer for c_nationkey).  The side
table is O(rows), NOT a bounded dimension, so the join strategy is
gated on its actual row count (the ``MINHASH_BROADCAST_MAX_DOCS``
discipline):

* ``mode="broadcast"`` (auto when the side table has <= ``gate_rows``
  rows): the packed (key, value) int64 arrays ship to the object store
  ONCE (``ray.put``) and every fact batch attaches via one searchsorted
  — zero extra shuffles.  ~16 bytes/row, so the 5M-row default gate
  bounds the broadcast at ~80 MB.
* ``mode="partitioned"`` (auto above the gate): the co-partitioned
  hash-join exchange (the ``denormalized_sales`` shape) — fact rows and
  side rows union into the same ``hash(key) % P`` partitions and the
  attach happens per partition; no stage ever holds the whole side.

Both modes FK-assert the lookup (every fact key must exist in the side
table) so a dangling key fails loudly instead of silently attaching a
wrong value.  Modes are pinned equal by
tests/test_ext128_ops.py::test_hhi_join_modes_agree,
tests/test_ext130_ops.py::test_region_coverage_join_modes_agree and
tests/test_queries.py (revenue_by_region).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import hash_exchange

ORDERS_BROADCAST_MAX_ROWS = 5_000_000
FACT_BROADCAST_MAX_ROWS = 5_000_000


def attach_fact_value(
    sf_dir: str,
    side_table: str,
    side_key: str,
    side_val: str,
    fact_ds,
    payload_cols: list[str],
    n_parts: int,
    mode: str | None = None,
    gate_rows: int = FACT_BROADCAST_MAX_ROWS,
    out_col: str = "v",
    side_val_fn=None,
):
    """Attach ``out_col`` (= side_val looked up by the fact's ``key``
    column in ``{sf_dir}/{side_table}.parquet``) to ``fact_ds`` rows.

    ``fact_ds`` must have an int64 ``key`` column plus ``payload_cols``;
    the result has columns ``[out_col] + payload_cols``.

    ``side_val`` is one column name or a LIST of column names.  For a
    single column, ``side_val_fn`` (numpy array -> int64 numpy array)
    derives the attached value from the raw side column (e.g. cents
    quantization); default = int64 cast.  For a list, ``side_val_fn`` is
    required and receives a dict ``{col: numpy array}`` — use it to pack
    several side attributes into one int64 (e.g. ``type_cls * B +
    brand_cls``); any class-id mapping it closes over must be bounded
    (a discovered domain), never fact-scaled.
    """
    import pyarrow.parquet as pq

    import ray
    path = f"{sf_dir}/{side_table}.parquet"
    n_side = pq.ParquetFile(path).metadata.num_rows
    if mode is None:
        mode = "broadcast" if n_side <= gate_rows else "partitioned"
    if mode not in ("broadcast", "partitioned"):
        raise ValueError(mode)
    side_cols = [side_val] if isinstance(side_val, str) else list(side_val)
    if len(side_cols) > 1 and side_val_fn is None:
        raise ValueError("side_val_fn is required for multi-column side_val")

    def derive(tbl: pa.Table) -> np.ndarray:
        if len(side_cols) == 1:
            arr = tbl.column(side_cols[0]).to_numpy(zero_copy_only=False)
            fn = side_val_fn or (lambda a: a.astype(np.int64))
            return fn(arr)
        return side_val_fn({
            c: tbl.column(c).to_numpy(zero_copy_only=False)
            for c in side_cols
        })

    def fk_check(sorted_keys: np.ndarray, fk: np.ndarray) -> np.ndarray:
        """Clipped searchsorted + LOUD FK guard (survives ``python -O``,
        unlike an assert): every fact key must exist in the side table."""
        pos = np.clip(np.searchsorted(sorted_keys, fk), 0,
                      max(len(sorted_keys) - 1, 0))
        if len(fk) and (not len(sorted_keys)
                        or not np.all(sorted_keys[pos] == fk)):
            raise ValueError(
                f"FK violation: fact key missing from {side_table}")
        return pos

    if mode == "broadcast":
        side = pq.read_table(path, columns=[side_key] + side_cols)
        sk = side.column(side_key).to_numpy().astype(np.int64)
        sv = derive(side)
        sorder = np.argsort(sk)
        sk, sv = sk[sorder], sv[sorder]
        side_ref = ray.put((sk, sv))

        def attach(batch: pa.Table) -> pa.Table:
            sk_, sv_ = ray.get(side_ref)
            fk = batch.column("key").to_numpy().astype(np.int64)
            pos = fk_check(sk_, fk)
            cols = {out_col: pa.array(sv_[pos], type=pa.int64())}
            for name in payload_cols:
                cols[name] = batch.column(name)
            return pa.table(cols)

        return fact_ds.map_batches(attach, batch_format="pyarrow",
                                   zero_copy_batch=True)

    # --- co-partitioned exchange (the side table never whole anywhere) ---
    P = int(n_parts)
    sch = fact_ds.schema()  # ray.data.Schema: .names / .types (Arrow types)
    all_types = dict(zip(sch.names, sch.types))
    payload_types = {name: all_types[name] for name in payload_cols}

    def key_fact(batch: pa.Table) -> pa.Table:
        fk = batch.column("key").to_numpy().astype(np.int64)
        cols = {
            "__side": pa.array(np.zeros(len(fk), np.int64)),
            "key": pa.array(fk, type=pa.int64()),
            out_col: pa.nulls(len(fk), pa.int64()),
        }
        for name in payload_cols:
            cols[name] = batch.column(name)
        return pa.table(cols)

    def key_side(batch: pa.Table) -> pa.Table:
        sk = batch.column(side_key).to_numpy().astype(np.int64)
        cols = {
            "__side": pa.array(np.ones(len(sk), np.int64)),
            "key": pa.array(sk, type=pa.int64()),
            out_col: pa.array(derive(batch), type=pa.int64()),
        }
        for name in payload_cols:
            cols[name] = pa.nulls(len(sk), payload_types[name])
        return pa.table(cols)

    sd = ray.data.read_parquet(path, columns=[side_key] + side_cols) \
        .map_batches(key_side, batch_format="pyarrow", zero_copy_batch=True)
    fact = fact_ds.map_batches(key_fact, batch_format="pyarrow",
                               zero_copy_batch=True)

    def join_group(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("key").to_numpy().astype(np.int64)
        is_dim = side == 1
        dim_keys = keys[is_dim]
        dim_vals = group.column(out_col).to_numpy(zero_copy_only=False)[is_dim] \
            .astype(np.int64)
        order = np.argsort(dim_keys)
        dim_sorted, vals_sorted = dim_keys[order], dim_vals[order]
        fact_tbl = group.filter(pa.array(~is_dim))
        fk = keys[~is_dim]
        cols = {}
        if len(fk):
            pos = fk_check(dim_sorted, fk)
            cols[out_col] = pa.array(vals_sorted[pos], type=pa.int64())
        else:
            cols[out_col] = pa.array([], type=pa.int64())
        for name in payload_cols:
            cols[name] = fact_tbl.column(name)
        return pa.table(cols)

    return hash_exchange(fact.union(sd), "key", join_group, P)


def attach_order_custkey(
    sf_dir: str,
    fact_ds,
    payload_cols: list[str],
    n_parts: int,
    mode: str | None = None,
):
    """Attach ``c`` (= o_custkey) to ``fact_ds`` rows via an int64
    ``okey`` column (lineitem -> orders, the customer-grain first hop)."""

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["key" if n == "okey" else n for n in batch.column_names])

    keyed = fact_ds.map_batches(rename, batch_format="pyarrow",
                                zero_copy_batch=True)
    return attach_fact_value(
        sf_dir, "orders", "o_orderkey", "o_custkey", keyed, payload_cols,
        n_parts, mode=mode, gate_rows=ORDERS_BROADCAST_MAX_ROWS, out_col="c",
    )


def attach_cust_nationkey(
    sf_dir: str,
    fact_ds,
    payload_cols: list[str],
    n_parts: int,
    mode: str | None = None,
):
    """Attach ``nk`` (= c_nationkey) to ``fact_ds`` rows via an int64
    ``key`` (= custkey) column (orders -> customer; customer is
    fact-scaled in TPC-H, so it gets the same gate as orders)."""
    return attach_fact_value(
        sf_dir, "customer", "c_custkey", "c_nationkey", fact_ds,
        payload_cols, n_parts, mode=mode, out_col="nk",
    )
