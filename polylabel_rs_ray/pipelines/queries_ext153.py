"""Round-3 extension operators, batch 153: doc-length EMD matrix +
longest repeated n-gram.

``doclen_emd_matrix`` — the distribution-shift diagnostic between corpus
slices: the 1-D earth-mover's (Wasserstein-1) distance between every
pair of languages' ``n_chars`` distributions, kept EXACT by clearing
denominators: W1 between empirical CDFs is ``Σ_v |F_a(v) − F_b(v)|·gap``
and multiplying by ``n_a·n_b`` turns every term into the integer
``|c_a(v)·n_b − c_b(v)·n_a|·gap``.  The engine reduces the bounded
(lang × distinct-length) histogram via map-side combine and folds the
10 lang pairs on the driver; the oracle replays with window cumsums over
the shared value grid.  int64 bound: n_a·n_b·range ≈ 1e9 at sf0.1; the
10^12-doc upgrade path is HUGEINT partials as decimal strings.

``longest_repeated_ngram`` — the intra-document repetition depth used by
quality filters (Gopher's "repeated n-gram fraction" family): for every
document, the largest n ≤ 16 such that some word n-gram occurs twice.
Exactness without hashing: within each batch the flattened token stream
is dictionary-encoded once, and level-n gram ids are built by the
suffix-ranking recurrence ``id_n(p) = compact(id_{n−1}(p), code(p+n−1))``
(one ``np.unique`` over packed int64 per level — collision-free by
construction, unlike rolling hashes).  A level's duplicates are found by
one lexsort + adjacent-equality pass per level; the loop early-exits
when no document is still alive.  Zero shuffle — per-doc-local compute.
The oracle enumerates all n-grams per (doc, n) via LATERAL positions and
takes MAX(n) over duplicated grams.

Reference anchors: text-quality + dedup families (SURVEY.md §2.4);
siblings: dup_trigram_coverage (flat dictionary-encode + reduceat),
value_qq_distance (decile distance — EMD is its full-histogram upgrade).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

NGRAM_CAP = 16


# --------------------------------------------------------------------------
# doclen_emd_matrix
# --------------------------------------------------------------------------


def q_doclen_emd_matrix(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "n_chars"])

    def hist(batch: pa.Table) -> pa.Table:
        t = batch.select(["lang", "n_chars"])
        out = t.group_by(["lang", "n_chars"]).aggregate([("n_chars",
                                                          "count")])
        return pa.table({
            "lang": out.column("lang"),
            "v": pc.cast(out.column("n_chars"), pa.int64()),
            "n": pc.cast(out.column("n_chars_count"), pa.int64()),
        })

    h = grouped_aggregate(
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "v"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: langs x distinct lengths

    langs = sorted(h["lang"].unique())
    vals = np.sort(h["v"].unique().astype(np.int64))
    counts = {}
    for lang in langs:
        g = h[h["lang"] == lang]
        c = np.zeros(len(vals), dtype=np.int64)
        c[np.searchsorted(vals, g["v"].to_numpy().astype(np.int64))] = \
            g["n"].to_numpy().astype(np.int64)
        counts[lang] = c
    gaps = np.diff(vals)
    la, lb, nas, nbs, emd = [], [], [], [], []
    for i, a in enumerate(langs):
        ca = np.cumsum(counts[a])
        na = int(ca[-1])
        for b in langs[i + 1:]:
            cb = np.cumsum(counts[b])
            nb = int(cb[-1])
            d = int(np.abs(ca[:-1] * nb - cb[:-1] * na).dot(gaps))
            la.append(a)
            lb.append(b)
            nas.append(na)
            nbs.append(nb)
            emd.append(d)
    return ray.data.from_arrow(pa.table({
        "lang_a": pa.array(la, type=pa.string()),
        "lang_b": pa.array(lb, type=pa.string()),
        "n_a": pa.array(nas, type=pa.int64()),
        "n_b": pa.array(nbs, type=pa.int64()),
        "emd_scaled": pa.array(emd, type=pa.int64()),
    }))


SQL_DOCLEN_EMD_MATRIX = """
WITH h AS (
    SELECT lang, n_chars AS v, COUNT(*) AS n FROM documents GROUP BY 1, 2
),
vals AS (SELECT DISTINCT v FROM h),
grid AS (
    SELECT l.lang, v.v
    FROM (SELECT DISTINCT lang FROM h) l CROSS JOIN vals v
),
cum AS (
    SELECT g.lang, g.v,
           SUM(COALESCE(h.n, 0)) OVER (PARTITION BY g.lang ORDER BY g.v)
               AS c
    FROM grid g LEFT JOIN h ON h.lang = g.lang AND h.v = g.v
),
tot AS (SELECT lang, SUM(n) AS n FROM h GROUP BY 1),
gaps AS (
    SELECT v, LEAD(v) OVER (ORDER BY v) - v AS gap FROM vals
)
SELECT ta.lang AS lang_a, tb.lang AS lang_b,
       CAST(ta.n AS BIGINT) AS n_a, CAST(tb.n AS BIGINT) AS n_b,
       CAST(SUM(ABS(ca.c * tb.n - cb.c * ta.n) * g.gap) AS BIGINT)
           AS emd_scaled
FROM tot ta
JOIN tot tb ON ta.lang < tb.lang
JOIN cum ca ON ca.lang = ta.lang
JOIN cum cb ON cb.lang = tb.lang AND cb.v = ca.v
JOIN gaps g ON g.v = ca.v AND g.gap IS NOT NULL
GROUP BY 1, 2, 3, 4
"""


# --------------------------------------------------------------------------
# longest_repeated_ngram
# --------------------------------------------------------------------------


def q_longest_repeated_ngram(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(batch.column("text"), pattern=r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.flatten()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        docix = np.repeat(np.arange(len(batch), dtype=np.int64), lens)[keep]
        codes = np.asarray(
            flat.filter(pa.array(keep)).dictionary_encode().indices
        ).astype(np.int64)
        best = np.zeros(len(batch), dtype=np.int64)
        # suffix-ranking recurrence over the valid-position arrays (kept
        # in position order; within a doc the valid set is a contiguous
        # run, so "next position" == "next entry with the same doc"):
        #   gram_n(p) = (gram_{n-1}(p), lastword_{n-1}(p+1))
        gid = codes          # level-1 gram id at position p
        lastw = codes        # last word code of the gram at position p
        pos_doc = docix
        for n in range(1, NGRAM_CAP + 1):
            if n > 1:
                same = pos_doc[:-1] == pos_doc[1:]
                packed = (gid[:-1] << np.int64(32)) | lastw[1:]
                gid = np.unique(packed[same], return_inverse=True)[1] \
                    .astype(np.int64)
                lastw = lastw[1:][same]
                pos_doc = pos_doc[:-1][same]
            if len(gid) == 0:
                break
            order = np.lexsort((gid, pos_doc))
            sd, sg = pos_doc[order], gid[order]
            dup = (sd[1:] == sd[:-1]) & (sg[1:] == sg[:-1])
            alive = np.unique(sd[1:][dup])
            if len(alive) == 0:
                break
            best[alive] = n
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "max_dup_ngram": pa.array(best, type=pa.int64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_LONGEST_REPEATED_NGRAM = rf"""
WITH tok AS (
    SELECT doc_id, regexp_extract_all(text, '\S+') AS ts,
           len(regexp_extract_all(text, '\S+')) AS L
    FROM documents
),
grams AS (
    SELECT t.doc_id, n.n,
           array_to_string(t.ts[i.i : i.i + n.n - 1], ' ') AS g
    FROM tok t
    JOIN (SELECT UNNEST(range(1, {NGRAM_CAP + 1})) AS n) n ON n.n <= t.L
    JOIN LATERAL (SELECT UNNEST(range(1, t.L - n.n + 2)) AS i) i ON TRUE
),
dup AS (
    SELECT doc_id, n FROM grams GROUP BY doc_id, n, g HAVING COUNT(*) > 1
)
SELECT d.doc_id, CAST(COALESCE(MAX(dup.n), 0) AS BIGINT) AS max_dup_ngram
FROM documents d LEFT JOIN dup ON dup.doc_id = d.doc_id
GROUP BY 1
"""


def build_queries_ext153() -> dict:
    return {
        "doclen_emd_matrix": q_doclen_emd_matrix,
        "longest_repeated_ngram": q_longest_repeated_ngram,
    }


def build_oracles_ext153() -> dict:
    return {
        "doclen_emd_matrix": SQL_DOCLEN_EMD_MATRIX,
        "longest_repeated_ngram": SQL_LONGEST_REPEATED_NGRAM,
    }
