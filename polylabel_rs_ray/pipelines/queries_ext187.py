"""Round-3 extension operators, batch 187: Z-function + RMQ sparse
table.

``doc_z_function`` — the Z-array of the corpus anchor document
(z[i] = length of the longest common prefix of s and s[i:], z[0] = 0
by convention): the third pillar of the anchor-doc stringology suite
(suffix array ext182, BWT ext183, borders ext186).  Engine: the
linear-time Z-algorithm with the [l, r) window invariant.  Oracle:
the definition as a MAX-k common-prefix probe per position.

``rmq_sparse_table`` — the range-minimum sparse table over the daily
revenue series, node by node: st(k, i) = min of cents over ranks
[i, i + 2^k), for every level with a full window.  Engine: the
doubling construction ``st(k) = min(st(k−1, i), st(k−1, i + 2^(k−1)))``.
Oracle: each level as an explicit ROWS-frame window minimum, one
UNION branch per level (machine-generated) — definition vs
construction.  The O(1) RMQ query identity — any range's min equals
min of its two covering power-of-two windows — is pytest-pinned on
deterministic probes.

Reference anchors: stringology + DB-internals families (SURVEY.md
§2.4); siblings: doc_suffix_array / vocab_borders (anchor-doc
strings), fenwick_nodes (structure-node contracts),
hourly_rolling_max (window minima/maxima).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# doc_z_function
# --------------------------------------------------------------------------


def _z_array(s: str) -> np.ndarray:
    L = len(s)
    z = np.zeros(L, dtype=np.int64)
    l, r = 0, 0
    for i in range(1, L):
        if i < r:
            z[i] = min(r - i, int(z[i - l]))
        while i + z[i] < L and s[int(z[i])] == s[i + int(z[i])]:
            z[i] += 1
        if i + z[i] > r:
            l, r = i, i + int(z[i])
    return z


def q_doc_z_function(sf_dir: str):
    from .queries_ext183 import _anchor_text

    import ray
    s = _anchor_text(sf_dir)
    z = _z_array(s)
    return ray.data.from_arrow(pa.table({
        "pos": pa.array(np.arange(len(s), dtype=np.int64)),
        "z": pa.array(z, type=pa.int64()),
    }))


SQL_DOC_Z_FUNCTION = """
WITH anchor AS MATERIALIZED (
  SELECT text AS s, length(text) AS L FROM documents
  WHERE doc_id = (SELECT MIN(doc_id) FROM documents)
), pos AS (
  SELECT r.range AS pos, a.s, a.L FROM anchor a
  JOIN range(0, 8192) r ON r.range < a.L
)
SELECT pos,
       CAST(CASE WHEN pos = 0 THEN 0 ELSE COALESCE((
         SELECT MAX(k.range) FROM range(1, 8192) k
         WHERE k.range <= L - pos
           AND substr(s, 1, k.range) = substr(s, pos + 1, k.range)
       ), 0) END AS BIGINT) AS z
FROM pos
"""


# --------------------------------------------------------------------------
# rmq_sparse_table
# --------------------------------------------------------------------------


def q_rmq_sparse_table(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    daily = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "cents", "cents")],
    ).to_pandas().sort_values("day").reset_index(drop=True)
    c = daily["cents"].to_numpy().astype(np.int64)
    D = len(c)
    ks, idxs, mins = [], [], []
    st = c.copy()
    k = 0
    while (1 << k) <= D:
        if k > 0:
            half = 1 << (k - 1)
            st = np.minimum(st[:-half], st[half:])
        ks.extend([k] * len(st))
        idxs.extend(range(len(st)))
        mins.extend(int(v) for v in st)
        k += 1
    return ray.data.from_arrow(pa.table({
        "k": pa.array(ks, type=pa.int64()),
        "idx": pa.array(idxs, type=pa.int64()),
        "node_min": pa.array(mins, type=pa.int64()),
    }))


def _sql_rmq_sparse_table() -> str:
    # levels up to log2 of any realistic daily-domain size; branches
    # with window longer than the series emit nothing (frame guard)
    branches = []
    for k in range(0, 13):
        w = (1 << k) - 1
        branches.append(f"""
SELECT {k} AS k, idx, node_min FROM (
  SELECT idx,
         MIN(cents) OVER (ORDER BY idx
                          ROWS BETWEEN CURRENT ROW AND {w} FOLLOWING)
           AS node_min,
         COUNT(*) OVER (ORDER BY idx
                        ROWS BETWEEN CURRENT ROW AND {w} FOLLOWING)
           AS wn
  FROM ranked)
WHERE wn = {1 << k}""")
    return """
WITH daily AS MATERIALIZED (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT)
           AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
), ranked AS MATERIALIZED (
  SELECT cents,
         CAST(ROW_NUMBER() OVER (ORDER BY day) - 1 AS BIGINT) AS idx
  FROM daily
)
SELECT CAST(k AS BIGINT) AS k, CAST(idx AS BIGINT) AS idx,
       CAST(node_min AS BIGINT) AS node_min
FROM (""" + " UNION ALL ".join(branches) + ")"


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext187():
    return {
        "doc_z_function": q_doc_z_function,
        "rmq_sparse_table": q_rmq_sparse_table,
    }


def build_oracles_ext187():
    return {
        "doc_z_function": SQL_DOC_Z_FUNCTION,
        "rmq_sparse_table": _sql_rmq_sparse_table(),
    }
