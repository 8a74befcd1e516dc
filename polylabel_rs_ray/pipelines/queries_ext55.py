"""Round-3 extension operators, batch 55: BM25 document retrieval.

``bm25_search`` — the query-side of the retrieval family: score every
document against a fixed multi-term query with Okapi BM25 (rational idf
``(N - df + 0.5)/(df + 0.5)`` — the ext25 convention, no transcendental
functions, so every float op replays VERBATIM in SQL) and return the
global top-10 by (score DESC, doc_id).  ``bm25_top_terms`` indexes
documents; this op answers a query against them.

Scale shape: ONE tokenization pass emits the thin per-doc moment table
(doc_id, dl, tf per query term — 5 int columns), materialized once for
its two consumers; corpus stats (N, sum dl, per-term df) are a bounded
single-key aggregate; scoring is a stateless map over the thin table
with the scalar stats broadcast, and the top-10 folds per-block partials
on the driver.  Absent terms score exactly 0.0 (0/x) on both sides, so
no branching is needed anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

QUERY_TERMS = ("data", "query", "table")
TOP_DOCS = 10
K1 = 1.2
B = 0.75


def q_bm25_search(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    from .queries_ext2 import tokenized_docs, toks_flat_from_batch

    import ray
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    # shared tokenization checkpoint (reused across the BM25/TF-IDF family)
    ds = tokenized_docs(sf_dir)

    def moments(batch: pa.Table) -> pa.Table:
        flat, off = toks_flat_from_batch(batch)
        dl = np.diff(off).astype(np.int64)
        cols = {
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "dl": pa.array(dl, type=pa.int64()),
        }
        # clip starts into range for zero-length tail segments; empty docs
        # are zeroed after the reduceat (which repeats on empty segments)
        starts = np.minimum(off[:-1].astype(np.int64),
                            max(len(flat) - 1, 0))
        for k, term in enumerate(QUERY_TERMS):
            hit = pc.equal(flat, term).to_numpy(
                zero_copy_only=False).astype(np.int64)
            tf = (np.add.reduceat(hit, starts) if len(hit)
                  else np.zeros(len(dl), np.int64))
            tf = np.where(dl == 0, 0, tf)
            cols[f"tf{k}"] = pa.array(tf.astype(np.int64), type=pa.int64())
        return pa.table(cols)

    thin = ds.map_batches(
        moments, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # thin 5-int-column moment table, two consumers

    def stats(batch: pa.Table) -> pa.Table:
        out = {
            "k": pa.array([0], type=pa.int64()),
            "sdl": pa.array([int(batch.column("dl").to_numpy().sum())],
                            type=pa.int64()),
        }
        for k in range(len(QUERY_TERMS)):
            tf = batch.column(f"tf{k}").to_numpy()
            out[f"df{k}"] = pa.array([int((tf > 0).sum())], type=pa.int64())
        return pa.table(out)

    g = grouped_aggregate(
        thin.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True),
        ["k"],
        [("sum", "sdl", "sdl")]
        + [("sum", f"df{k}", f"df{k}") for k in range(len(QUERY_TERMS))],
    ).to_pandas()
    avgdl = int(g["sdl"][0]) / n_docs  # exact int -> double, one divide
    dfs = [int(g[f"df{k}"][0]) for k in range(len(QUERY_TERMS))]

    def score(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy().astype(np.int64)
        norm = dl.astype(np.float64) / avgdl
        total = np.zeros(len(dl), np.float64)
        tfs = []
        # fixed term order — the SQL sums the identical three terms in the
        # identical order, so the float result is bit-exact
        for k in range(len(QUERY_TERMS)):
            tf = batch.column(f"tf{k}").to_numpy().astype(np.int64)
            tfs.append(tf)
            idf = (float(n_docs - dfs[k]) + 0.5) / (float(dfs[k]) + 0.5)
            denom = tf.astype(np.float64) + K1 * ((1.0 - B) + B * norm)
            total = total + idf * ((tf.astype(np.float64) * (K1 + 1.0)) / denom)
        t = pa.table({
            "doc_id": batch.column("doc_id"),
            "dl": batch.column("dl"),
            "tf_data": pa.array(tfs[0], type=pa.int64()),
            "tf_query": pa.array(tfs[1], type=pa.int64()),
            "tf_table": pa.array(tfs[2], type=pa.int64()),
            "score": pa.array(total, type=pa.float64()),
        })
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        order = np.lexsort((did, -total))[:TOP_DOCS]
        return t.take(pa.array(order, type=pa.int64()))

    tops = thin.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # bounded: TOP_DOCS x blocks
    tops = tops.sort_values(["score", "doc_id"],
                            ascending=[False, True]).head(TOP_DOCS)
    tops = tops.reset_index(drop=True)
    t = pa.table({
        "rank": pa.array(np.arange(1, len(tops) + 1), type=pa.int64()),
        "doc_id": pa.array(tops["doc_id"].to_numpy().astype(np.int64),
                           type=pa.int64()),
        "score": pa.array(tops["score"].to_numpy(), type=pa.float64()),
        "dl": pa.array(tops["dl"].to_numpy().astype(np.int64), type=pa.int64()),
        "tf_data": pa.array(tops["tf_data"].to_numpy().astype(np.int64),
                            type=pa.int64()),
        "tf_query": pa.array(tops["tf_query"].to_numpy().astype(np.int64),
                             type=pa.int64()),
        "tf_table": pa.array(tops["tf_table"].to_numpy().astype(np.int64),
                             type=pa.int64()),
    })
    return ray.data.from_arrow(t)


def _sql_bm25_search() -> str:
    terms = QUERY_TERMS
    tf_cols = ",\n         ".join(
        f"CAST(len(list_filter(ws, w -> w = '{t}')) AS BIGINT) AS tf{k}"
        for k, t in enumerate(terms)
    )
    df_cols = ", ".join(
        f"CAST(SUM(CASE WHEN tf{k} > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df{k}"
        for k in range(len(terms))
    )
    score_terms = " + ".join(
        f"((CAST(n - df{k} AS DOUBLE) + 0.5) / (CAST(df{k} AS DOUBLE) + 0.5))"
        f" * ((CAST(tf{k} AS DOUBLE) * ({K1} + 1.0))"
        f" / (CAST(tf{k} AS DOUBLE) + {K1} * ((1.0 - {B}) + {B}"
        f" * (CAST(dl AS DOUBLE) / (CAST(sdl AS DOUBLE) / CAST(n AS DOUBLE))))))"
        for k in range(len(terms))
    )
    return f"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\\s+'),
                     x -> x <> '') AS ws
  FROM documents
), t AS (
  SELECT doc_id, CAST(len(ws) AS BIGINT) AS dl,
         {tf_cols}
  FROM w
), g AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(dl) AS BIGINT) AS sdl,
         {df_cols}
  FROM t
), s AS (
  SELECT doc_id, dl, tf0, tf1, tf2,
         {score_terms} AS score
  FROM t, g
), ranked AS (
  SELECT *, ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS rank FROM s
)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, score, dl,
       tf0 AS tf_data, tf1 AS tf_query, tf2 AS tf_table
FROM ranked WHERE rank <= {TOP_DOCS}
"""


def build_queries_ext55() -> dict:
    return {"bm25_search": q_bm25_search}


def build_oracles_ext55() -> dict:
    return {"bm25_search": _sql_bm25_search()}
