"""Round-3 extension operators, batch 25: BM25 term scoring.

``bm25_top_terms`` — Okapi BM25 (rational-idf variant, no transcendental
ops so the DuckDB oracle replays the arithmetic bit-exactly): per-doc
top-K terms by score.  Same two-pass shape as ``tfidf_top_terms``:
distributed df + corpus length stats, broadcast vocabulary (vocab <<
corpus by the df floor), per-batch scoring with zero per-doc shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BM25_K1 = 1.2
BM25_B = 0.75
BM25_DF_MIN = 5  # vocabulary floor: term must appear in >= BM25_DF_MIN docs
BM25_K = 3  # top terms kept per document


# --------------------------------------------------------------------------
# BM25 top terms
# --------------------------------------------------------------------------


def q_bm25_top_terms(sf_dir: str):
    """Okapi BM25 with rational idf (N - df + 0.5)/(df + 0.5) — the
    standard formula minus the log, so every op is +,*,/ on doubles and
    the SQL oracle's IEEE arithmetic is bit-identical.  Rank semantics
    match log-idf BM25 exactly (log is monotone)."""
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate
    from .queries_ext2 import tokenized_docs, toks_flat_from_batch

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    # ONE tokenization pass: both the df pass and the scoring pass stream
    # the checkpointed (doc_id, toks) parquet (queries_ext2.tokenized_docs)
    ds = tokenized_docs(sf_dir)

    def df_partials(batch: pa.Table) -> pa.Table:
        """(term, distinct-doc count) per batch, plus ONE sentinel row
        (term="", n=total tokens in batch) — "" can never be a \\S+ token,
        so the corpus word total rides the same exchange for free."""
        flat, off = toks_flat_from_batch(batch)
        did = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.int64), np.diff(off)
        )
        pairs = pa.table({"doc": pa.array(did), "term": flat})
        dist = pairs.group_by(["doc", "term"]).aggregate([])
        out = dist.group_by(["term"]).aggregate([("doc", "count")])
        base = pa.table({
            "term": out.column("term"),
            "n": pc.cast(out.column("doc_count"), pa.int64()),
        })
        sent = pa.table({
            "term": pa.array([""], type=pa.string()),
            "n": pa.array([len(flat)], type=pa.int64()),
        })
        return pa.concat_tables([base, sent]).combine_chunks()

    df_tbl = grouped_aggregate(
        ds.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True),
        ["term"],
        [("sum", "n", "df")],
    ).to_pandas()  # vocabulary + 1 sentinel row: small by the df floor
    sent = df_tbl["term"] == ""
    total_words = int(df_tbl.loc[sent, "df"].iloc[0])
    kept = df_tbl[~sent & (df_tbl["df"] >= BM25_DF_MIN)].sort_values("term")
    vocab = kept["term"].to_numpy().astype(object)
    dfs = kept["df"].to_numpy().astype(np.int64)
    avgdl = total_words / n_docs  # ints < 2^53: exact conversions, one divide

    vocab_arr = pa.array(vocab, type=pa.string())  # SORTED by term

    def bm25(batch: pa.Table) -> pa.Table:
        flat, off = toks_flat_from_batch(batch)
        bdoc = batch.column("doc_id").to_numpy().astype(np.int64)
        dl_batch = np.diff(off).astype(np.int64)
        did = np.repeat(bdoc, dl_batch)
        pairs = pa.table({"doc_id": pa.array(did), "term": flat})
        tf_tbl = pairs.group_by(["doc_id", "term"]).aggregate([("term", "count")])
        doc = tf_tbl.column("doc_id").to_numpy().astype(np.int64)
        # vocab rank instead of the term string everywhere: the vocab is
        # sorted, so rank ASC == term ASC and the whole path stays numeric
        rank = pc.fill_null(
            pc.index_in(tf_tbl.column("term"), value_set=vocab_arr), -1
        ).to_numpy().astype(np.int64)
        tf = tf_tbl.column("term_count").to_numpy().astype(np.int64)
        m = rank >= 0
        doc, rank, tf = doc[m], rank[m], tf[m]
        dfv = dfs[rank]
        # doc length lookup: batch doc ids are unique rows
        bord = np.argsort(bdoc)
        dl = dl_batch[bord][np.searchsorted(bdoc[bord], doc)]
        # every op below appears VERBATIM in SQL_BM25_TOP_TERMS
        idf = ((n_docs - dfv).astype(np.float64) + 0.5) / (
            dfv.astype(np.float64) + 0.5
        )
        norm = dl.astype(np.float64) / avgdl
        denom = tf.astype(np.float64) + BM25_K1 * (
            (1.0 - BM25_B) + BM25_B * norm
        )
        score = idf * ((tf.astype(np.float64) * (BM25_K1 + 1.0)) / denom)
        order = np.lexsort((rank, -score, doc))
        doc, rank, tf, dfv, dl, score = (
            doc[order], rank[order], tf[order], dfv[order], dl[order],
            score[order],
        )
        new_doc = np.r_[True, doc[1:] != doc[:-1]]
        idx = np.arange(len(doc), dtype=np.int64)
        pos = idx - np.maximum.accumulate(np.where(new_doc, idx, 0))
        k = pos < BM25_K
        return pa.table({
            "doc_id": pa.array(doc[k], type=pa.int64()),
            "term": pc.take(vocab_arr, pa.array(rank[k], type=pa.int64())),
            "tf": pa.array(tf[k], type=pa.int64()),
            "df": pa.array(dfv[k], type=pa.int64()),
            "dl": pa.array(dl[k], type=pa.int64()),
            "score": pa.array(score[k], type=pa.float64()),
        })

    return ds.map_batches(
        bm25, batch_format="pyarrow", zero_copy_batch=True
    )


SQL_BM25_TOP_TERMS = rf"""
    WITH w AS (
        SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
    ),
    dl AS (
        SELECT doc_id, CAST(len(ws) AS BIGINT) AS dl FROM w
    ),
    stats AS (
        SELECT CAST(SUM(dl) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS avgdl,
               COUNT(*) AS n
        FROM dl
    ),
    toks AS (
        SELECT doc_id, unnest(ws) AS term FROM w
    ),
    df AS (
        SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
        FROM toks GROUP BY term
        HAVING COUNT(DISTINCT doc_id) >= {BM25_DF_MIN}
    ),
    tf AS (
        SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
        FROM toks GROUP BY doc_id, term
    ),
    scored AS (
        SELECT t.doc_id, t.term, t.tf, f.df, d.dl,
               ((CAST(s.n - f.df AS DOUBLE) + 0.5)
                    / (CAST(f.df AS DOUBLE) + 0.5))
               * ((CAST(t.tf AS DOUBLE) * ({BM25_K1} + 1.0))
                    / (CAST(t.tf AS DOUBLE)
                       + {BM25_K1} * ((1.0 - {BM25_B})
                                      + {BM25_B} * (CAST(d.dl AS DOUBLE)
                                                    / s.avgdl))))
                   AS score
        FROM tf t
        JOIN df f USING (term)
        JOIN dl d ON t.doc_id = d.doc_id
        CROSS JOIN stats s
    )
    SELECT doc_id, term, tf, df, dl, score
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, term) AS rn
          FROM scored)
    WHERE rn <= {BM25_K}
"""


def build_queries_ext25() -> dict:
    return {
        "bm25_top_terms": q_bm25_top_terms,
    }


def build_oracles_ext25() -> dict:
    return {
        "bm25_top_terms": SQL_BM25_TOP_TERMS,
    }
