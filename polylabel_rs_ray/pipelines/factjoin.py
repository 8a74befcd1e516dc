"""Fact-to-fact key attach by broadcast lookup.

``attach_fact_value`` joins a fact dataset (keyed by an int64 ``key``
column) against another fact-scaled table to attach one int64 value
column — the recurring hop of the TPC-H-shape rollups (lineitem →
orders for o_custkey, orders → customer for c_nationkey).  The packed
(key, value) int64 arrays of the side table ship to the object store
once (``ray.put``) and every fact batch attaches via one searchsorted —
zero extra shuffles, ~16 bytes a side row (24 MB for orders at sf1).

The lookup is FK-asserted (every fact key must exist in the side table)
so a dangling key fails loudly instead of silently attaching a wrong
value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def attach_fact_value(
    sf_dir: str,
    side_table: str,
    side_key: str,
    side_val: str,
    fact_ds,
    payload_cols: list[str],
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
    side_cols = [side_val] if isinstance(side_val, str) else list(side_val)
    if len(side_cols) > 1 and side_val_fn is None:
        raise ValueError("side_val_fn is required for multi-column side_val")

    side = pq.read_table(f"{sf_dir}/{side_table}.parquet",
                         columns=[side_key] + side_cols)
    sk = side.column(side_key).to_numpy().astype(np.int64)
    if len(side_cols) == 1:
        arr = side.column(side_cols[0]).to_numpy(zero_copy_only=False)
        sv = (side_val_fn or (lambda a: a.astype(np.int64)))(arr)
    else:
        sv = side_val_fn({
            c: side.column(c).to_numpy(zero_copy_only=False) for c in side_cols
        })
    sorder = np.argsort(sk)
    side_ref = ray.put((sk[sorder], sv[sorder]))

    def attach(batch: pa.Table) -> pa.Table:
        sk_, sv_ = ray.get(side_ref)
        fk = batch.column("key").to_numpy().astype(np.int64)
        # clipped searchsorted + loud FK guard (survives ``python -O``,
        # unlike an assert): every fact key must exist in the side table
        pos = np.clip(np.searchsorted(sk_, fk), 0, max(len(sk_) - 1, 0))
        if len(fk) and (not len(sk_) or not np.all(sk_[pos] == fk)):
            raise ValueError(f"FK violation: fact key missing from {side_table}")
        cols = {out_col: pa.array(sv_[pos], type=pa.int64())}
        for name in payload_cols:
            cols[name] = batch.column(name)
        return pa.table(cols)

    return fact_ds.map_batches(attach, batch_format="pyarrow",
                               zero_copy_batch=True)


def attach_order_custkey(sf_dir: str, fact_ds, payload_cols: list[str]):
    """Attach ``c`` (= o_custkey) to ``fact_ds`` rows via an int64
    ``okey`` column (lineitem -> orders, the customer-grain first hop)."""

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["key" if n == "okey" else n for n in batch.column_names])

    keyed = fact_ds.map_batches(rename, batch_format="pyarrow",
                                zero_copy_batch=True)
    return attach_fact_value(
        sf_dir, "orders", "o_orderkey", "o_custkey", keyed, payload_cols,
        out_col="c",
    )


def attach_cust_nationkey(sf_dir: str, fact_ds, payload_cols: list[str]):
    """Attach ``nk`` (= c_nationkey) to ``fact_ds`` rows via an int64
    ``key`` (= custkey) column (orders -> customer)."""
    return attach_fact_value(
        sf_dir, "customer", "c_custkey", "c_nationkey", fact_ds,
        payload_cols, out_col="nk",
    )
