"""Round-3 extension operators, batch 182: document suffix array + LCP
+ skip-list level histogram.

``doc_suffix_array`` — the canonical string-index structure over the
corpus' anchor document (the minimum doc_id): every suffix with its
lexicographic rank and the LCP to the previous rank (Kasai's
definition).  The engine builds the suffix array by PREFIX DOUBLING
(rank-pair radix over log L rounds) and the LCP array by Kasai's
O(L) amortized walk; the oracle simply sorts the materialized
suffixes and measures common prefixes with a MAX-k probe — direct
specification vs the real algorithms.  Distributed shape: the anchor
doc is fetched by a pruned min-reduce scan; the index folds on the
single bounded string (the per-document unit of text indexing — at
corpus scale this stage maps per doc inside map_batches, which the
per-doc-loop-free siblings already demonstrate).

``skiplist_level_histogram`` — the randomized-structure audit made
deterministic: each order key draws its skip-list level from the
geometric distribution induced by its md5 hash (level = 1 + count of
trailing zero bits of ``md5_number_lower(key)`` — the repo-wide
SQL-replayable hash convention), and the bounded level histogram is
emitted.  The engine computes trailing zeros vectorized (uint64
lowbit + exact float log2); the oracle probes the first set bit with
a MIN-over-shifts pick — different bit machinery, same histogram.
The geometric-decay shape (each level roughly half the previous) is
pytest-pinned loosely.

Reference anchors: text-index + DB-internals families (SURVEY.md
§2.4); siblings: fingerprints / longest_repeated_ngram (string
indexing), fenwick_nodes (structure-node contracts), consistent_
hash_audit (md5-derived placement).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# doc_suffix_array
# --------------------------------------------------------------------------


def _suffix_array_doubling(s: str) -> np.ndarray:
    """Prefix-doubling suffix array (O(L log^2 L) with numpy lexsort)."""
    L = len(s)
    rank = np.array([ord(c) for c in s], dtype=np.int64)
    sa = np.arange(L, dtype=np.int64)
    k = 1
    while True:
        key2 = np.full(L, -1, dtype=np.int64)
        key2[:L - k] = rank[k:]
        order = np.lexsort((key2, rank))
        new = np.zeros(L, dtype=np.int64)
        prev = order[0]
        for idx in order[1:]:
            new[idx] = new[prev] + (
                1 if (rank[idx] != rank[prev]
                      or key2[idx] != key2[prev]) else 0)
            prev = idx
        rank = new
        sa = order
        if rank.max() == L - 1:
            return sa
        k *= 2


def _kasai_lcp(s: str, sa: np.ndarray) -> np.ndarray:
    L = len(s)
    rank = np.empty(L, dtype=np.int64)
    rank[sa] = np.arange(L)
    lcp = np.zeros(L, dtype=np.int64)
    h = 0
    for i in range(L):
        r = rank[i]
        if r > 0:
            j = sa[r - 1]
            while i + h < L and j + h < L and s[i + h] == s[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


def q_doc_suffix_array(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def pick(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        i = int(np.argmin(d))
        # packed argmin-carry: zero-padded id prefix keeps the min-id
        # row's TEXT paired with its id through the min reduce
        packed = f"{int(d[i]):020d}|" + str(
            batch.column("text")[i].as_py())
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "packed": pa.array([packed], type=pa.string()),
        })

    anchor = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"]).map_batches(
            pick, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("min", "packed", "packed")],
    ).to_pandas()
    s = str(anchor["packed"][0]).split("|", 1)[1]

    sa = _suffix_array_doubling(s)
    lcp = _kasai_lcp(s, sa)
    L = len(s)
    return ray.data.from_arrow(pa.table({
        "rank": pa.array(np.arange(L, dtype=np.int64)),
        "pos": pa.array(sa, type=pa.int64()),
        "lcp_prev": pa.array(lcp, type=pa.int64()),
    }))


SQL_DOC_SUFFIX_ARRAY = """
WITH anchor AS MATERIALIZED (
  SELECT text FROM documents
  WHERE doc_id = (SELECT MIN(doc_id) FROM documents)
), sfx AS MATERIALIZED (
  SELECT r.range AS pos, substr(a.text, r.range + 1) AS suf,
         length(a.text) AS L
  FROM anchor a JOIN range(0, 8192) r ON r.range < length(a.text)
), ranked AS MATERIALIZED (
  SELECT pos, suf, L,
         ROW_NUMBER() OVER (ORDER BY suf) - 1 AS rank
  FROM sfx
)
SELECT a.rank, a.pos,
       CAST(COALESCE((
         SELECT MAX(k.range) FROM range(0, 8192) k
         WHERE k.range <= least(length(a.suf), length(b.suf))
           AND substr(a.suf, 1, k.range) = substr(b.suf, 1, k.range)
       ), 0) AS BIGINT) AS lcp_prev
FROM ranked a
LEFT JOIN ranked b ON b.rank = a.rank - 1
"""


# --------------------------------------------------------------------------
# skiplist_level_histogram
# --------------------------------------------------------------------------


def q_skiplist_level_histogram(sf_dir: str):
    import hashlib

    from .agg import grouped_aggregate

    import ray

    def levels(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        h = np.array([
            int.from_bytes(
                hashlib.md5(str(int(x)).encode()).digest()[8:], "little")
            for x in k], dtype=np.uint64)
        lowbit = np.bitwise_and(h, (~h) + np.uint64(1))
        tz = np.where(h == 0, 63,
                      np.log2(lowbit.astype(np.float64))).astype(np.int64)
        level = tz + 1
        t = pa.table({
            "level": pa.array(level, type=pa.int64()),
            "one": pa.array(np.ones(len(k), dtype=np.int64)),
        })
        g = t.group_by("level").aggregate([("one", "sum")])
        return pa.table({
            "level": g.column("level"),
            "n_keys": pc.cast(g.column("one_sum"), pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).map_batches(
            levels, batch_format="pyarrow", zero_copy_batch=True),
        ["level"], [("sum", "n_keys", "n_keys")],
    )


SQL_SKIPLIST_LEVEL_HISTOGRAM = """
WITH h AS MATERIALIZED (
  SELECT md5_number_lower(CAST(o_orderkey AS VARCHAR)) AS v
  FROM orders
), lv AS (
  SELECT COALESCE((SELECT MIN(r.range) FROM range(0, 64) r
                   WHERE ((v >> r.range) & 1) = 1), 63) + 1 AS level
  FROM h
)
SELECT CAST(level AS BIGINT) AS level,
       CAST(COUNT(*) AS BIGINT) AS n_keys
FROM lv GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext182():
    return {
        "doc_suffix_array": q_doc_suffix_array,
        "skiplist_level_histogram": q_skiplist_level_histogram,
    }


def build_oracles_ext182():
    return {
        "doc_suffix_array": SQL_DOC_SUFFIX_ARRAY,
        "skiplist_level_histogram": SQL_SKIPLIST_LEVEL_HISTOGRAM,
    }
