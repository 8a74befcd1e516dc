"""Round-3 extension operators, batch 127: taxicab/Chebyshev vertex
diameters + language-centroid affinity scoring.

``taxicab_diameter_stats`` — per dyadic document, the L1 (Manhattan)
and L∞ (Chebyshev) diameters of the exterior vertex set, via the
45°-rotation identity that turns the quadratic all-pairs max into two
range reductions:

    L1  diam = max(range(x + y), range(x - y))
    L∞ diam = max(range(x),     range(y))

(u = x+y, v = x−y maps L1 to L∞ exactly on the integer lattice —
the same checkerboard transform Hilbert/Z-order locality work uses.)
Translation-invariant exactly (ranges of integer-shifted coords), so
values are per-fixture constants; the oracle computes the ranges
INSIDE DuckDB over the embedded fixture vertex table.  The identity
itself is pinned against the brute all-pairs fold in tests.

``lang_centroid_affinity`` — the bag-of-words centroid-classifier
score: per document, the exact int64 dot product between the
document's word-count vector and its OWN language's corpus word-count
vector (the unnormalized nearest-centroid affinity), plus the doc
token count.  The per-(lang, word) corpus table is bounded (langs ×
the synthetic vocabulary) and broadcasts once (ray.put) into the
per-doc scoring pass; per doc the dot is a dict-free numpy fold over
the batch-local dictionary encoding.  NOTE (corpus trap, pinned in
NOTES): the synthetic corpus draws lang labels independently of text,
so affinity is non-discriminative BY DESIGN — the operator contract
is the arithmetic, which the oracle replays exactly.

Reference anchors: shape metrology + text-classifier families
(SURVEY.md §2.3/2.4); siblings: diameter_stats (L2 calipers),
curve_locality_compare (checkerboard transform), nb_word_counts
(per-class count tables), tfidf_top_terms (broadcast corpus stats).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources import docs as docs_mod
from .queries_ext import DYADIC_IDX, _dyadic_rings_ds
from .queries_ext119 import _sql_fixture_verts


# --------------------------------------------------------------------------
# taxicab_diameter_stats
# --------------------------------------------------------------------------


def _taxicab_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    l1 = np.empty(len(polys), dtype=np.int64)
    linf = np.empty(len(polys), dtype=np.int64)
    for i, rings in enumerate(polys):
        ext = rings[0]
        x = ext[:, 0] - ext[:, 0].min()  # exact: integer-valued floats
        y = ext[:, 1] - ext[:, 1].min()
        u, v = x + y, x - y
        l1[i] = int(max(u.max() - u.min(), v.max() - v.min()))
        linf[i] = int(max(x.max() - x.min(), y.max() - y.min()))
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "l1_diam": pa.array(l1, type=pa.int64()),
        "linf_diam": pa.array(linf, type=pa.int64()),
    })


def q_taxicab_diameter_stats(sf_dir: str):
    return _dyadic_rings_ds(sf_dir).map_batches(
        _taxicab_stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_taxicab_diameter_stats() -> str:
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        WITH verts AS ({_sql_fixture_verts(exterior_only=True)}),
        dims AS (
            SELECT fix_idx,
                   GREATEST(MAX(x + y) - MIN(x + y),
                            MAX(x - y) - MIN(x - y)) AS l1_diam,
                   GREATEST(MAX(x) - MIN(x), MAX(y) - MIN(y)) AS linf_diam
            FROM verts GROUP BY fix_idx
        )
        SELECT d.doc_id AS doc_num,
               d.doc_id % {n} AS fixture_idx,
               CAST(m.l1_diam AS BIGINT) AS l1_diam,
               CAST(m.linf_diam AS BIGINT) AS linf_diam
        FROM documents d
        JOIN dims m ON m.fix_idx = d.doc_id % {n}
        WHERE d.doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# lang_centroid_affinity
# --------------------------------------------------------------------------


def q_lang_centroid_affinity(sf_dir: str):
    import ray

    from .agg import grouped_aggregate

    ds0 = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["lang", "text"])

    def lang_word(batch: pa.Table) -> pa.Table:
        langs: list[str] = []
        words: list[str] = []
        ls = batch.column("lang").to_pylist()
        for i, t in enumerate(batch.column("text").to_pylist()):
            for w in (t or "").lower().split():
                langs.append(ls[i])
                words.append(w)
        t = pa.table({
            "lang": pa.array(langs, type=pa.string()),
            "word": pa.array(words, type=pa.string()),
        })
        out = t.group_by(["lang", "word"]).aggregate([("word", "count")])
        return pa.table({
            "lang": out.column("lang"),
            "word": out.column("word"),
            "n": pc.cast(out.column("word_count"), pa.int64()),
        })

    lw = grouped_aggregate(
        ds0.map_batches(lang_word, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["lang", "word"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: langs × synthetic vocabulary
    cent = {(r.lang, r.word): int(r.n) for r in lw.itertuples()}
    cent_ref = ray.put(cent)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])

    def score(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        langs = batch.column("lang").to_pylist()
        nt = np.zeros(len(ids), dtype=np.int64)
        aff = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch.column("text").to_pylist()):
            toks = (t or "").lower().split()
            nt[i] = len(toks)
            lang = langs[i]
            aff[i] = sum(c.get((lang, w), 0) for w in toks)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "lang": pa.array(langs, type=pa.string()),
            "n_tokens": pa.array(nt, type=pa.int64()),
            "affinity": pa.array(aff, type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_LANG_CENTROID_AFFINITY = r"""
WITH toks AS (
  SELECT doc_id, lang,
         regexp_extract_all(lower(text), '\S+') AS t
  FROM documents
),
dw AS (
  SELECT doc_id, lang, UNNEST(t) AS word FROM toks
),
lw AS (
  SELECT lang, word, CAST(COUNT(*) AS BIGINT) AS n
  FROM dw GROUP BY 1, 2
),
aff AS (
  SELECT d.doc_id, CAST(SUM(l.n) AS BIGINT) AS affinity
  FROM dw d JOIN lw l ON l.lang = d.lang AND l.word = d.word
  GROUP BY d.doc_id
)
SELECT tk.doc_id, tk.lang,
       CAST(len(tk.t) AS BIGINT) AS n_tokens,
       COALESCE(a.affinity, 0) AS affinity
FROM toks tk LEFT JOIN aff a ON a.doc_id = tk.doc_id
"""


def build_queries_ext127() -> dict:
    return {
        "taxicab_diameter_stats": q_taxicab_diameter_stats,
        "lang_centroid_affinity": q_lang_centroid_affinity,
    }


def build_oracles_ext127() -> dict:
    return {
        "taxicab_diameter_stats": _sql_taxicab_diameter_stats(),
        "lang_centroid_affinity": SQL_LANG_CENTROID_AFFINITY,
    }
