"""Round-3 extension operators, batch 110: shingle novelty + exact KS test.

``trigram_novelty`` — per-document novelty signal for corpus curation:
the share of a doc's distinct word 3-grams that occur in NO other
document (global docfreq == 1).  The complement of the near-dup
family: dedup hunts for SHARED shingles, novelty scores the UNSHARED
remainder.  Shape: per-batch distinct (shingle, doc) pairs co-partition
by shingle hash — docfreq and the uniqueness flag resolve INSIDE each
shingle partition (one pyarrow group_by + segment flag), which emits
per-doc (n_shingles, n_unique) partials; one final doc-keyed
map-side-combined aggregate finishes.  Two exchanges total, no
inverted index materialized, no driver corpus.  Docs under 3 words
drop on both sides.

``doclen_ks_test`` — two-sample Kolmogorov-Smirnov distance between
the EN and DE document-length distributions, EXACT: lengths live on a
bounded domain, so both empirical CDFs are integer cumulative counts
over the merged value grid and ``D = max |cum_a·n_b − cum_b·n_a| /
(n_a·n_b)`` — the max of exact int64 cross products (≤ ~6e8 at
sf0.1).  Per-(lang, length) histogram partials combine map-side; the
grid fold runs on the bounded histogram.  Emits the exact numerator /
denominator pair plus the one float quotient, and the argmax length
(smallest such length on ties, pinned both sides).

Reference anchors: LLM-corpus quality surface (SURVEY.md §2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

KS_LANG_A = "en"
KS_LANG_B = "de"


def q_trigram_novelty(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    from .queries_ext5 import _word_lists

    import ray
    P = n_partitions(n_parts)

    def shingle_pairs(batch: pa.Table) -> pa.Table:
        flat, counts, doc_idx = _word_lists(batch)
        doc_ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = len(flat)
        if n < 3:
            return pa.table({
                "part": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
            })
        # a shingle is valid when all 3 words belong to the same doc
        same = doc_idx[:-2] == doc_idx[2:]
        i = np.flatnonzero(same)
        w0 = flat.take(pa.array(i))
        w1 = flat.take(pa.array(i + 1))
        w2 = flat.take(pa.array(i + 2))
        sh = pc.binary_join_element_wise(w0, w1, w2, " ")
        docs = doc_ids[doc_idx[i]]
        g = pa.table({
            "s": sh,
            "doc_id": pa.array(docs, type=pa.int64()),
        }).group_by(["s", "doc_id"]).aggregate([])
        sv = g.column("s")
        import polars as pl

        h = pl.from_arrow(sv).hash(seed=0).to_numpy().astype(np.uint64)
        return pa.table({
            "part": pa.array((h % np.uint64(P)).astype(np.int64),
                             type=pa.int64()),
            "s": sv,
            "doc_id": g.column("doc_id"),
        })

    def doc_partials(group: pa.Table) -> pa.Table:
        # finish the global (shingle, doc) distinct within this partition,
        # then docfreq + uniqueness flag per shingle
        g = group.group_by(["s", "doc_id"]).aggregate([])
        sv = g.column("s").combine_chunks()
        codes = sv.dictionary_encode().indices.to_numpy().astype(np.int64)
        freq = np.bincount(codes)
        uniq = (freq[codes] == 1).astype(np.int64)
        out = pa.table({
            "doc_id": g.column("doc_id"),
            "n_shingles": pa.array(np.ones(len(codes), np.int64)),
            "n_unique": pa.array(uniq, type=pa.int64()),
        }).group_by(["doc_id"]).aggregate(
            [("n_shingles", "sum"), ("n_unique", "sum")])
        return pa.table({
            "doc_id": out.column("doc_id"),
            "n_shingles": out.column("n_shingles_sum"),
            "n_unique": out.column("n_unique_sum"),
        })

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    per_doc = grouped_aggregate(
        group_map(
            ds.map_batches(shingle_pairs, batch_format="pyarrow", zero_copy_batch=True),
            "part", lambda g: doc_partials(g.drop_columns(["part"])),
        ),
        ["doc_id"],
        [("sum", "n_shingles", "n_shingles"),
         ("sum", "n_unique", "n_unique")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        ns = batch.column("n_shingles").to_numpy().astype(np.int64)
        nu = batch.column("n_unique").to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_shingles": batch.column("n_shingles"),
            "n_unique": batch.column("n_unique"),
            "novelty": pa.array(nu.astype(np.float64) / ns.astype(np.float64),
                                type=pa.float64()),
        })

    return per_doc.map_batches(finish, batch_format="pyarrow",
                               zero_copy_batch=True).sort("doc_id")


SQL_TRIGRAM_NOVELTY = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
sh AS (
  SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s
  FROM w, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i)
  WHERE len(t) >= 3
),
df AS (SELECT s, COUNT(*) AS dfreq FROM sh GROUP BY 1)
SELECT sh.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_shingles,
       CAST(SUM(CASE WHEN df.dfreq = 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_unique,
       CAST(SUM(CASE WHEN df.dfreq = 1 THEN 1 ELSE 0 END) AS DOUBLE)
         / CAST(COUNT(*) AS DOUBLE) AS novelty
FROM sh JOIN df USING (s)
GROUP BY sh.doc_id
ORDER BY sh.doc_id
"""


def q_doclen_ks_test(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def hist_partial(batch: pa.Table) -> pa.Table:
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        keep = (lang == KS_LANG_A) | (lang == KS_LANG_B)
        t = batch.filter(pa.array(keep))
        g = pa.table({
            "lang": t.column("lang"),
            "v": pc.cast(t.column("n_chars"), pa.int64()),
            "one": pa.array(np.ones(len(t), np.int64)),
        }).group_by(["lang", "v"]).aggregate([("one", "sum")])
        return pa.table({
            "lang": g.column("lang"), "v": g.column("v"),
            "f": g.column("one_sum"),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["lang", "n_chars"])
        .map_batches(hist_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["lang", "v"], [("sum", "f", "f")],
    ).to_pandas()  # bounded: distinct doc lengths x 2 langs

    a = hist[hist["lang"] == KS_LANG_A].set_index("v")["f"].astype(int)
    b = hist[hist["lang"] == KS_LANG_B].set_index("v")["f"].astype(int)
    na, nb = int(a.sum()), int(b.sum())
    grid = sorted(set(a.index) | set(b.index))
    cum_a = cum_b = 0
    d_num, d_at = -1, -1
    for v in grid:
        cum_a += int(a.get(v, 0))
        cum_b += int(b.get(v, 0))
        dev = abs(cum_a * nb - cum_b * na)
        if dev > d_num:  # strict: ties keep the SMALLEST length
            d_num, d_at = dev, int(v)
    return pa.table({
        "lang_a": pa.array([KS_LANG_A], type=pa.string()),
        "lang_b": pa.array([KS_LANG_B], type=pa.string()),
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb], type=pa.int64()),
        "d_num": pa.array([d_num], type=pa.int64()),
        "d_den": pa.array([na * nb], type=pa.int64()),
        "d_at_len": pa.array([d_at], type=pa.int64()),
        "ks_d": pa.array([float(d_num) / float(na * nb)],
                         type=pa.float64()),
    })


SQL_DOCLEN_KS_TEST = f"""
WITH base AS (
  SELECT lang, CAST(n_chars AS BIGINT) AS v FROM documents
  WHERE lang IN ('{KS_LANG_A}', '{KS_LANG_B}')
),
h AS (
  SELECT v,
         SUM(CASE WHEN lang = '{KS_LANG_A}' THEN 1 ELSE 0 END) AS fa,
         SUM(CASE WHEN lang = '{KS_LANG_B}' THEN 1 ELSE 0 END) AS fb
  FROM base GROUP BY v
),
tot AS (SELECT SUM(fa) AS na, SUM(fb) AS nb FROM h),
cdf AS (
  SELECT v,
         SUM(fa) OVER (ORDER BY v) AS ca,
         SUM(fb) OVER (ORDER BY v) AS cb
  FROM h
),
dev AS (
  SELECT v, ABS(ca * tot.nb - cb * tot.na) AS d
  FROM cdf CROSS JOIN tot
),
best AS (SELECT v, d FROM dev ORDER BY d DESC, v ASC LIMIT 1)
SELECT '{KS_LANG_A}' AS lang_a, '{KS_LANG_B}' AS lang_b,
       CAST(tot.na AS BIGINT) AS n_a, CAST(tot.nb AS BIGINT) AS n_b,
       CAST(best.d AS BIGINT) AS d_num,
       CAST(tot.na * tot.nb AS BIGINT) AS d_den,
       CAST(best.v AS BIGINT) AS d_at_len,
       CAST(best.d AS DOUBLE) / CAST(tot.na * tot.nb AS DOUBLE) AS ks_d
FROM best CROSS JOIN tot
"""


def build_queries_ext110() -> dict:
    return {
        "trigram_novelty": q_trigram_novelty,
        "doclen_ks_test": q_doclen_ks_test,
    }


def build_oracles_ext110() -> dict:
    return {
        "trigram_novelty": SQL_TRIGRAM_NOVELTY,
        "doclen_ks_test": SQL_DOCLEN_KS_TEST,
    }
