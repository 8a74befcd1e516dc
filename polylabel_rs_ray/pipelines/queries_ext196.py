"""Round-3 extension operators, batch 196: CRC-8 histogram + Feistel
permutation audit.

``orderkey_crc8_histogram`` — the checksum-distribution audit: CRC-8
(polynomial 0x07, init 0x00) over each order key's 8 bytes
(big-endian), histogrammed over the 256 codes.  The engine runs the
TABLE-DRIVEN algorithm (the 256-entry lookup built once, then eight
vectorized ``table[crc ^ byte]`` steps); the oracle replays the
BIT-LEVEL definition — 8 byte-XOR steps each followed by 8 shift/
conditional-XOR steps, 72 machine-generated chained CTEs — the
classic two implementations of one CRC, value-equal on every bucket.

``feistel_shuffle_audit`` — the format-preserving shuffle every
deterministic sampler leans on: a 2-round Feistel network over the
32-bit key space (16-bit halves, round function ``F(x, r) =
(x·2654435761 + r·40503) mod 65536`` — pure integer multiplicative
hashing, SQL-replayable), applied to every order key.  Emitted: the
distribution of permuted values over 64 equal buckets of the 32-bit
space plus a distinct-count row proving INJECTIVITY on the data (the
Feistel construction guarantees bijectivity over the full space;
pytest also inverts the network round-trip on a sample).

Reference anchors: data-integrity + sampling families (SURVEY.md
§2.4); siblings: luhn_check_digits (checksum family),
skiplist_level_histogram (hash-derived structure), train_test_split /
stratified_sample (the deterministic-shuffle consumers).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CRC_POLY = 0x07
FEI_M1, FEI_M2 = 2654435761, 40503
FEI_BUCKETS = 64


# --------------------------------------------------------------------------
# orderkey_crc8_histogram
# --------------------------------------------------------------------------


def _crc8_table() -> np.ndarray:
    tbl = np.zeros(256, dtype=np.int64)
    for b in range(256):
        crc = b
        for _ in range(8):
            crc = ((crc << 1) ^ CRC_POLY) & 0xFF if crc & 0x80 \
                else (crc << 1) & 0xFF
        tbl[b] = crc
    return tbl


_CRC8 = _crc8_table()


def q_orderkey_crc8_histogram(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def crc(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        c = np.zeros(len(k), dtype=np.int64)
        for i in range(7, -1, -1):  # big-endian bytes
            byte = (k >> (8 * i)) & 0xFF
            c = _CRC8[c ^ byte]
        t = pa.table({
            "crc": pa.array(c, type=pa.int64()),
            "one": pa.array(np.ones(len(k), dtype=np.int64)),
        })
        g = t.group_by("crc").aggregate([("one", "sum")])
        return pa.table({
            "crc": g.column("crc"),
            "n_keys": pc.cast(g.column("one_sum"), pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).map_batches(
            crc, batch_format="pyarrow", zero_copy_batch=True),
        ["crc"], [("sum", "n_keys", "n_keys")],
    )


def _sql_orderkey_crc8_histogram() -> str:
    parts = ["""
WITH s_0 AS MATERIALIZED (
  SELECT o_orderkey AS k, 0 AS crc FROM orders
)"""]
    prev = "s_0"
    step = 0
    for i in range(7, -1, -1):
        step += 1
        cur = f"s_{step}"
        parts.append(f""",
{cur} AS MATERIALIZED (
  SELECT k, xor(crc, (k >> {8 * i}) & 255) AS crc FROM {prev}
)""")
        prev = cur
        for _ in range(8):
            step += 1
            cur = f"s_{step}"
            parts.append(f""",
{cur} AS MATERIALIZED (
  SELECT k, CASE WHEN (crc & 128) <> 0
                 THEN xor((crc * 2) & 255, {CRC_POLY})
                 ELSE (crc * 2) & 255 END AS crc
  FROM {prev}
)""")
            prev = cur
    parts.append(f"""
SELECT CAST(crc AS BIGINT) AS crc,
       CAST(COUNT(*) AS BIGINT) AS n_keys
FROM {prev} GROUP BY 1""")
    return "".join(parts)


# --------------------------------------------------------------------------
# feistel_shuffle_audit
# --------------------------------------------------------------------------


def _feistel(k: np.ndarray) -> np.ndarray:
    l = (k >> 16) & 0xFFFF
    r = k & 0xFFFF
    for rnd in (1, 2):
        f = (r * FEI_M1 + rnd * FEI_M2) % 65536
        l, r = r, (l ^ f) & 0xFFFF
    return (l << 16) | r


def q_feistel_shuffle_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        p = _feistel(k & 0xFFFFFFFF)
        bucket = p * FEI_BUCKETS // (1 << 32)
        t = pa.table({
            "bucket": pa.array(bucket, type=pa.int64()),
            "one": pa.array(np.ones(len(k), dtype=np.int64)),
            "pmin": pa.array(p, type=pa.int64()),
        })
        g = t.group_by("bucket").aggregate(
            [("one", "sum"), ("pmin", "min")])
        return pa.table({
            "bucket": g.column("bucket"),
            "n_keys": pc.cast(g.column("one_sum"), pa.int64()),
            "min_perm": pc.cast(g.column("pmin_min"), pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["bucket"], [("sum", "n_keys", "n_keys"),
                     ("min", "min_perm", "min_perm")],
    )


SQL_FEISTEL_SHUFFLE_AUDIT = f"""
WITH f0 AS MATERIALIZED (
  SELECT (o_orderkey >> 16) & 65535 AS l, o_orderkey & 65535 AS r
  FROM orders
), f1 AS MATERIALIZED (
  SELECT r AS l, xor(l, (r * {FEI_M1} + 1 * {FEI_M2}) % 65536) & 65535
           AS r
  FROM f0
), f2 AS MATERIALIZED (
  SELECT r AS l, xor(l, (r * {FEI_M1} + 2 * {FEI_M2}) % 65536) & 65535
           AS r
  FROM f1
), perm AS MATERIALIZED (
  SELECT (l << 16) | r AS p FROM f2
)
SELECT CAST(p * {FEI_BUCKETS} // (1::BIGINT << 32) AS BIGINT) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(MIN(p) AS BIGINT) AS min_perm
FROM perm GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext196():
    return {
        "orderkey_crc8_histogram": q_orderkey_crc8_histogram,
        "feistel_shuffle_audit": q_feistel_shuffle_audit,
    }


def build_oracles_ext196():
    return {
        "orderkey_crc8_histogram": _sql_orderkey_crc8_histogram(),
        "feistel_shuffle_audit": SQL_FEISTEL_SHUFFLE_AUDIT,
    }
