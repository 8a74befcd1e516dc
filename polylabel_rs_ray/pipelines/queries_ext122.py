"""Round-3 extension operators, batch 122: rare-bigram document scoring
+ intra-document duplicate-trigram coverage.

``rare_bigram_docs`` — the corpus-quality signal "how much of this
document is built from rare word bigrams": pass 1 computes the corpus
bigram count table (map-side combine; the synthetic vocabulary is
bounded, ~930 distinct bigrams at every scale factor) and takes the
LOWER MEDIAN of the distinct-bigram counts as the rarity threshold
(rank-based, so it adapts across scale factors — a fixed absolute
cutoff degenerates to all-or-nothing as the corpus grows); pass 2
broadcasts the rare-bigram set (small side, one ``ray.put``) and
scores every document: total bigrams, rare occurrences, distinct rare
bigrams.  Tokenization is the registry-wide ``lower().split()`` ↔
``regexp_extract_all(lower(text), '\\S+')`` contract.  Oracle: the
same median-threshold rollup in SQL (ROW_NUMBER lower-median idiom).

``dup_trigram_coverage`` — the Gopher-style intra-document repetition
signal "fraction of token positions covered by a word 3-gram that
occurs at least twice IN THIS DOCUMENT", as exact integer columns
(n_tokens, n_trigrams, n_dup_occurrences, covered_positions).  Fully
vectorized per batch: tokens dictionary-encoded batch-locally, the
(doc, c1·V² + c2·V + c3) trigram keys lexsorted, run lengths mark
duplicate occurrences, and position coverage is one boolean
fancy-assignment over the flat token stream + per-doc reduceat — no
per-row Python loop.  Oracle: LATERAL trigram explode, in-doc count
join, COUNT(DISTINCT covered position) via generate_series(i, i+2).

Reference anchors: LLM-corpus quality family (SURVEY.md §2.4);
siblings: gopher_signals (intra-doc word/bigram repetition),
top_bigrams (tokenization contract), contamination_check (broadcast
small-set membership pass).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# rare_bigram_docs
# --------------------------------------------------------------------------


def _bigram_count_table(sf_dir: str):
    """Bounded corpus bigram-count table via map-side combine."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def bigram_counts(batch: pa.Table) -> pa.Table:
        grams: list[str] = []
        for t in batch.column("text").to_pylist():
            toks = (t or "").lower().split()
            grams.extend(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        tbl = pa.table({"bigram": pa.array(grams, type=pa.string())})
        out = tbl.group_by(["bigram"]).aggregate([("bigram", "count")])
        return pa.table({
            "bigram": out.column("bigram"),
            "n": pc.cast(out.column("bigram_count"), pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(bigram_counts, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["bigram"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: distinct bigrams of the synthetic vocabulary


def q_rare_bigram_docs(sf_dir: str):
    import ray

    counts = _bigram_count_table(sf_dir)
    n = np.sort(counts["n"].to_numpy().astype(np.int64))
    median = int(n[(len(n) - 1) // 2])  # lower median — pure integer
    rare = frozenset(
        counts.loc[counts["n"] < median, "bigram"].tolist())
    rare_ref = ray.put(rare)  # small side: broadcast once, read per task

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        rare_set = ray.get(rare_ref)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        nb = np.zeros(len(ids), dtype=np.int64)
        nro = np.zeros(len(ids), dtype=np.int64)
        nrd = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch.column("text").to_pylist()):
            toks = (t or "").lower().split()
            seen: set[str] = set()
            occ = 0
            for a, b in zip(toks, toks[1:]):
                g = f"{a} {b}"
                if g in rare_set:
                    occ += 1
                    seen.add(g)
            nb[i] = max(len(toks) - 1, 0)
            nro[i] = occ
            nrd[i] = len(seen)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_bigrams": pa.array(nb, type=pa.int64()),
            "n_rare_occ": pa.array(nro, type=pa.int64()),
            "n_rare_distinct": pa.array(nrd, type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_RARE_BIGRAM_DOCS = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS t FROM documents
),
bi AS (
  SELECT doc_id, t[i] || ' ' || t[i + 1] AS bigram
  FROM toks, LATERAL (SELECT unnest(generate_series(1, len(t) - 1)) AS i)
),
cnt AS (
  SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n FROM bi GROUP BY bigram
),
med AS (
  SELECT n AS m FROM (
    SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rn, COUNT(*) OVER () AS d
    FROM cnt
  ) WHERE rn = (d + 1) // 2
),
rare AS (
  SELECT bigram FROM cnt WHERE n < (SELECT m FROM med)
),
per_doc AS (
  SELECT b.doc_id,
         CAST(COUNT(r.bigram) AS BIGINT) AS n_rare_occ,
         CAST(COUNT(DISTINCT r.bigram) AS BIGINT) AS n_rare_distinct
  FROM bi b LEFT JOIN rare r ON r.bigram = b.bigram
  GROUP BY b.doc_id
)
SELECT tk.doc_id,
       CAST(GREATEST(len(tk.t) - 1, 0) AS BIGINT) AS n_bigrams,
       COALESCE(p.n_rare_occ, 0) AS n_rare_occ,
       COALESCE(p.n_rare_distinct, 0) AS n_rare_distinct
FROM toks tk LEFT JOIN per_doc p ON p.doc_id = tk.doc_id
"""


# --------------------------------------------------------------------------
# dup_trigram_coverage
# --------------------------------------------------------------------------


def _coverage_kernel(ids: np.ndarray, texts: list) -> pa.Table:
    tok_doc: list[int] = []
    tokens: list[str] = []
    for i, t in enumerate(texts):
        toks = (t or "").lower().split()
        tokens.extend(toks)
        tok_doc.extend([i] * len(toks))
    n_docs = len(ids)
    doc_idx = np.asarray(tok_doc, dtype=np.int64)
    n_tok = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(n_tok)])
    codes = pa.array(tokens, type=pa.string()).dictionary_encode()
    c = np.asarray(codes.indices, dtype=np.int64)
    v = len(codes.dictionary)

    # trigram flat indices: f where f, f+1, f+2 share a doc
    n = len(c)
    n_tris = np.maximum(n_tok - 2, 0)
    if n >= 3:
        same = (doc_idx[:-2] == doc_idx[2:])
        f = np.nonzero(same)[0]
    else:
        f = np.empty(0, dtype=np.int64)
    key = (c[f] * v + c[f + 1]) * v + c[f + 2] if len(f) else f
    # occurrences of a (doc, key) trigram seen >= 2 times in the doc
    order = np.lexsort((key, doc_idx[f])) if len(f) else f
    fk, fd = key[order], doc_idx[f][order]
    new = np.empty(len(fk), dtype=bool)
    if len(fk):
        new[0] = True
        new[1:] = (fk[1:] != fk[:-1]) | (fd[1:] != fd[:-1])
    starts = np.nonzero(new)[0]
    run_id = np.cumsum(new) - 1 if len(fk) else new.astype(np.int64)
    run_len = np.diff(np.concatenate([starts, [len(fk)]])) if len(fk) \
        else np.empty(0, dtype=np.int64)
    dup_occ = run_len[run_id] >= 2 if len(fk) else new
    dup_f = f[order][dup_occ]

    covered = np.zeros(n, dtype=bool)
    for sh in (0, 1, 2):
        covered[dup_f + sh] = True
    n_dup = np.bincount(doc_idx[f][order][dup_occ], minlength=n_docs) \
        if len(fk) else np.zeros(n_docs, dtype=np.int64)
    if n:
        cov = np.add.reduceat(covered.astype(np.int64), offsets[:-1])
        cov[n_tok == 0] = 0
    else:
        cov = np.zeros(n_docs, dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "n_tokens": pa.array(n_tok, type=pa.int64()),
        "n_trigrams": pa.array(n_tris, type=pa.int64()),
        "n_dup_occ": pa.array(n_dup.astype(np.int64), type=pa.int64()),
        "covered_pos": pa.array(cov.astype(np.int64), type=pa.int64()),
    })


def q_dup_trigram_coverage(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        return _coverage_kernel(
            batch.column("doc_id").to_numpy().astype(np.int64),
            batch.column("text").to_pylist())

    return ds.map_batches(stage, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_DUP_TRIGRAM_COVERAGE = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS t FROM documents
),
tri AS (
  SELECT doc_id, i, t[i] || ' ' || t[i + 1] || ' ' || t[i + 2] AS g
  FROM toks, LATERAL (SELECT unnest(generate_series(1, len(t) - 2)) AS i)
),
cnt AS (
  SELECT doc_id, g, COUNT(*) AS c FROM tri GROUP BY 1, 2
),
dup AS (
  SELECT t.doc_id, t.i
  FROM tri t JOIN cnt c ON c.doc_id = t.doc_id AND c.g = t.g AND c.c >= 2
),
cov AS (
  SELECT doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_dup_occ,
         CAST(COUNT(DISTINCT p) AS BIGINT) AS covered_pos
  FROM (
    SELECT d.doc_id, d.i, u.p
    FROM dup d, LATERAL (SELECT unnest(generate_series(d.i, d.i + 2)) AS p) u
  ) GROUP BY doc_id
),
dcnt AS (
  SELECT doc_id, i FROM dup
)
SELECT tk.doc_id,
       CAST(len(tk.t) AS BIGINT) AS n_tokens,
       CAST(GREATEST(len(tk.t) - 2, 0) AS BIGINT) AS n_trigrams,
       COALESCE((SELECT CAST(COUNT(*) AS BIGINT) FROM dcnt d
                 WHERE d.doc_id = tk.doc_id), 0) AS n_dup_occ,
       COALESCE(c.covered_pos, 0) AS covered_pos
FROM toks tk LEFT JOIN cov c ON c.doc_id = tk.doc_id
"""


def build_queries_ext122() -> dict:
    return {
        "rare_bigram_docs": q_rare_bigram_docs,
        "dup_trigram_coverage": q_dup_trigram_coverage,
    }


def build_oracles_ext122() -> dict:
    return {
        "rare_bigram_docs": SQL_RARE_BIGRAM_DOCS,
        "dup_trigram_coverage": SQL_DUP_TRIGRAM_COVERAGE,
    }
