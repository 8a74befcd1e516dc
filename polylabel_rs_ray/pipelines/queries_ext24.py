"""Round-3 extension operators, batch 24: cross-document duplicated
n-gram fraction (the C4/RefinedWeb-style dup-ngram curation filter).

``cross_doc_ngram_dup`` — per document: how many of its word trigrams
also occur in at least one OTHER document, as a count and a fraction.
High cross-doc dup fraction marks boilerplate / templated / mirrored
text that per-doc repetition signals (``gopher_signals``) cannot see.

Scale shape (two bounded exchanges, no second read, no broadcast of the
unbounded duplicated-trigram set):

1. map: per-block (trigram, doc_id, n_occ) via one Arrow C++ group_by
   (trigrams built vectorized from the flat word stream — a trigram is
   valid iff its three words share a doc), partitioned on mix(tri) % P.
2. exchange 1 on the trigram hash: every copy of a trigram lands in one
   partition, so doc frequency (distinct docs per trigram) is exact
   there; each partition emits per-doc partials (n_tri, n_dup).
3. exchange 2: a per-doc ``grouped_aggregate`` sum of the partials.

The fraction is the double division of the two exact integers — the
oracle performs the identical division, so values hash-equal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

NGRAM_N = 3


def q_cross_doc_ngram_dup(sf_dir: str, n_parts: int | None = None):
    from .agg import _key_hash, grouped_aggregate
    from .queries_ext5 import _word_lists

    import ray
    P = n_partitions(n_parts)
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tri_doc(batch: pa.Table) -> pa.Table:
        flat, counts, doc_idx = _word_lists(batch)
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        n = len(flat)
        if n < NGRAM_N:
            return pa.table({
                "tri": pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
                "n_occ": pa.array([], type=pa.int64()),
                "__tpart": pa.array([], type=pa.int64()),
            })
        # a trigram starting at flat position i is in-doc iff position
        # i+2 still belongs to the same document
        ok = doc_idx[: n - 2] == doc_idx[2:]
        okp = pa.array(ok)
        w0 = flat.slice(0, n - 2).filter(okp)
        w1 = flat.slice(1, n - 2).filter(okp)
        w2 = flat.slice(2, n - 2).filter(okp)
        tri = pc.binary_join_element_wise(w0, w1, w2, " ")
        g = pa.table({
            "tri": tri,
            "doc_id": pa.array(did[doc_idx[: n - 2][ok]], type=pa.int64()),
        }).group_by(["tri", "doc_id"]).aggregate([([], "count_all")])
        pairs = pa.table({
            "tri": g.column("tri"),
            "doc_id": g.column("doc_id"),
            "n_occ": pc.cast(g.column("count_all"), pa.int64()),
        })
        part = (_key_hash(pairs, ["tri"]) % np.uint64(P)).astype(np.int64)
        return pairs.append_column("__tpart", pa.array(part, type=pa.int64()))

    def doc_partials(group: pa.Table) -> pa.Table:
        # all copies of a trigram are in this partition: df is exact here
        t = group.drop_columns(["__tpart"]).group_by(["tri", "doc_id"]).aggregate(
            [("n_occ", "sum")]
        )
        occ = t.column("n_occ_sum").to_numpy().astype(np.int64)
        tri = t.column("tri")
        if isinstance(tri, pa.ChunkedArray):
            tri = tri.combine_chunks()
        codes = tri.dictionary_encode().indices.to_numpy().astype(np.int64)
        df = np.bincount(codes)  # rows are distinct (tri, doc) -> df = docs
        dup = df[codes] >= 2
        did = t.column("doc_id").to_numpy().astype(np.int64)
        # per-doc partials via one compaction of the doc ids seen here
        uniq, inv = np.unique(did, return_inverse=True)
        n_tri = np.bincount(inv, weights=occ).astype(np.int64)
        n_dup = np.bincount(inv, weights=np.where(dup, occ, 0)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(uniq, type=pa.int64()),
            "n_tri": pa.array(n_tri, type=pa.int64()),
            "n_dup": pa.array(n_dup, type=pa.int64()),
        })

    partials = group_map(
        ds.map_batches(tri_doc, batch_format="pyarrow", zero_copy_batch=True),
        "__tpart", doc_partials,
    )

    totals = grouped_aggregate(
        partials,
        ["doc_id"],
        [("sum", "n_tri", "n_tri"), ("sum", "n_dup", "n_dup")],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "dup_frac",
            pc.divide(
                pc.cast(batch.column("n_dup"), pa.float64()),
                pc.cast(batch.column("n_tri"), pa.float64()),
            ),
        )

    return totals.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


SQL_CROSS_DOC_NGRAM_DUP = """
    WITH w AS (
        SELECT doc_id, string_split(text, ' ') AS ws FROM documents
    ),
    tri AS (
        SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS tri
        FROM w, UNNEST(generate_series(1, len(ws) - 2)) AS g(i)
    ),
    df AS (
        SELECT tri, COUNT(DISTINCT doc_id) AS df FROM tri GROUP BY tri
    )
    SELECT t.doc_id AS doc_id,
           CAST(COUNT(*) AS BIGINT) AS n_tri,
           CAST(SUM(CASE WHEN f.df >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
           CAST(SUM(CASE WHEN f.df >= 2 THEN 1 ELSE 0 END) AS DOUBLE)
               / COUNT(*) AS dup_frac
    FROM tri t JOIN df f USING (tri)
    GROUP BY t.doc_id
"""


def build_queries_ext24() -> dict:
    return {"cross_doc_ngram_dup": q_cross_doc_ngram_dup}


def build_oracles_ext24() -> dict:
    return {"cross_doc_ngram_dup": SQL_CROSS_DOC_NGRAM_DUP}
