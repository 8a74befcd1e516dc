"""Round-2 extension operators, batch 20: multi-dimensional clustering.

``zorder_pruned_read`` — relational z-order layout + 2-D partition-pruned
read: orders are written ONCE (fingerprinted atomic checkpoint, like the
spatial layout) hive-partitioned by the Morton interleave of (price
bucket, date bucket); a query with ranges on BOTH dimensions enumerates
only the covering z-buckets and opens only those partitions, then applies
the exact residual filter.  Unlike single-key hive layout, z-order keeps
BOTH range dimensions selective — the relational cousin of the spatial
tile layout (bbox_query).  The oracle is the plain 2-D range scan."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

ZBITS = 4  # 4 bits per dimension -> 256 z-buckets
DAY_US = 86_400_000_000

# query window: a mid-range price band and a date band
PRICE_LO_C = 50_000_00  # $50k in cents
PRICE_HI_C = 150_000_00
DATE_LO = "1996-01-01"
DATE_HI = "1998-01-01"


def _zinterleave4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Morton interleave of two 4-bit values (a=even bits, b=odd bits)."""
    out = np.zeros_like(a)
    for i in range(ZBITS):
        out |= ((a >> i) & 1) << (2 * i)
        out |= ((b >> i) & 1) << (2 * i + 1)
    return out


# global bucketization constants: fixed, derived from the data DOMAIN
# (order dates span 1995..2001, prices are positive cents) so the layout
# never needs a data pass to define its buckets
PRICE_MAX_C = 60_000_000  # $600k in cents, above any o_totalprice
DATE0_DAYS = 9131  # 1995-01-01 in epoch days
DATE_SPAN_DAYS = 2770  # through 2002-08


def _buckets(price_c: np.ndarray, days: np.ndarray):
    pq_ = np.clip(price_c * (1 << ZBITS) // PRICE_MAX_C, 0, (1 << ZBITS) - 1)
    dq = np.clip((days - DATE0_DAYS) * (1 << ZBITS) // DATE_SPAN_DAYS, 0,
                 (1 << ZBITS) - 1)
    return pq_.astype(np.int64), dq.astype(np.int64)


def _zorder_checkpoint(sf_dir: str) -> str:
    from .queries import _checkpoint

    def write(path: str) -> None:
        import ray
        ds = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderdate", "o_totalprice"],
        )

        def keyed(batch: pa.Table) -> pa.Table:
            cents = pc.cast(
                pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)), pa.int64()
            ).to_numpy()
            days = (
                batch.column("o_orderdate").to_numpy().astype("datetime64[us]")
                .astype(np.int64) // DAY_US
            )
            pq_, dq = _buckets(cents, days)
            return pa.table({
                "zb": pa.array(_zinterleave4(pq_, dq), type=pa.int64()),
                "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
                "price_cents": pa.array(cents, type=pa.int64()),
                "days": pa.array(days, type=pa.int64()),
            })

        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
            path, partition_cols=["zb"]
        )

    return _checkpoint(sf_dir, "orders_zorder", ["orders.parquet"], write)


def q_zorder_pruned_read(sf_dir: str):
    import os

    import ray
    ckpt = _zorder_checkpoint(sf_dir)

    import pandas as pd

    lo_days = int(pd.Timestamp(DATE_LO).value // 1000 // DAY_US)
    hi_days = int(pd.Timestamp(DATE_HI).value // 1000 // DAY_US)
    # covering z-buckets: the cross product of the two bucket ranges
    pq_, dq = _buckets(
        np.array([PRICE_LO_C, PRICE_HI_C], dtype=np.int64),
        np.array([lo_days, hi_days], dtype=np.int64),
    )
    p_range = np.arange(pq_[0], pq_[1] + 1, dtype=np.int64)
    d_range = np.arange(dq[0], dq[1] + 1, dtype=np.int64)
    zbs = sorted(
        int(z)
        for z in _zinterleave4(
            np.repeat(p_range, len(d_range)), np.tile(d_range, len(p_range))
        )
    )
    import glob as _glob

    files = []
    for z in zbs:  # pruned read: only covering z-buckets are opened
        d = os.path.join(ckpt, f"zb={z}")
        if os.path.isdir(d):
            files.extend(sorted(_glob.glob(os.path.join(d, "*.parquet"))))
    ds = ray.data.read_parquet(files)

    def residual(batch: pa.Table) -> pa.Table:
        c = batch.column("price_cents").to_numpy().astype(np.int64)
        d = batch.column("days").to_numpy().astype(np.int64)
        keep = (c >= PRICE_LO_C) & (c <= PRICE_HI_C) & (d >= lo_days) & (d < hi_days)
        return pa.table({
            "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()).filter(
                pa.array(keep)
            ),
            "price_cents": pa.array(c[keep], type=pa.int64()),
        })

    return ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True)


SQL_ZORDER_PRUNED_READ = f"""
    SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey,
           CAST(ROUND(o_totalprice * 100) AS BIGINT) AS price_cents
    FROM orders
    WHERE ROUND(o_totalprice * 100) BETWEEN {PRICE_LO_C} AND {PRICE_HI_C}
      AND o_orderdate >= DATE '{DATE_LO}' AND o_orderdate < DATE '{DATE_HI}'
"""


def build_queries_ext19() -> dict:
    return {"zorder_pruned_read": q_zorder_pruned_read}


def build_oracles_ext19() -> dict:
    return {"zorder_pruned_read": SQL_ZORDER_PRUNED_READ}
