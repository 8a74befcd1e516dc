"""Round-3 extension operators, batch 81: Ripley's K pair counts and
skip-window co-occurrence.

``ripley_k_counts`` — the point-pattern statistic behind Ripley's K:
for each radius r in a fixed ladder, the number of ORDERED label-point
pairs within distance r (squared-distance comparison — dyadic-exact,
no sqrt).  The label table here is dim-scale so the pair test runs
within one stage over the broadcast point set; the corpus-scale path
is the existing tile-bucketed neighborhood machinery (knn_tiles).
The SQL oracle is the literal self-join.

``cooccurrence_window_counts`` — skip-gram co-occurrence: how often
the corpus' two most frequent words appear within ±W token positions
of each other (the windowed-context statistic behind word-vector
training).  The target pair is data-driven (top-2 by count,
lexicographic tie-break) but bounded; per-document position lists
vectorize with searchsorted windows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

RIPLEY_RADII = (8, 16, 32)
COOC_WINDOW = 5


def q_ripley_k_counts(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled

    import ray

    # dim-scale point set: broadcast once, each batch tests its rows
    # against the full set (ordered pairs, self excluded by doc_num)
    pts = _dyadic_labeled(sf_dir).to_pandas()
    ax = pts["label_x"].to_numpy()
    ay = pts["label_y"].to_numpy()
    adoc = pts["doc_num"].to_numpy().astype(np.int64)

    def stage(batch: pa.Table) -> pa.Table:
        bx = batch.column("label_x").to_numpy()
        by = batch.column("label_y").to_numpy()
        bdoc = batch.column("doc_num").to_numpy().astype(np.int64)
        dx = bx[:, None] - ax[None, :]
        dy = by[:, None] - ay[None, :]
        d2 = dx * dx + dy * dy
        not_self = bdoc[:, None] != adoc[None, :]
        cols = {"k": pa.array([0], type=pa.int64())}
        for r in RIPLEY_RADII:
            cols[f"n_pairs_r{r}"] = pa.array(
                [int(((d2 <= float(r * r)) & not_self).sum())],
                type=pa.int64())
        return pa.table(cols)

    return grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(stage, batch_format="pyarrow",
                                            zero_copy_batch=True),
        ["k"],
        [("sum", f"n_pairs_r{r}", f"n_pairs_r{r}") for r in RIPLEY_RADII],
    ).select_columns([f"n_pairs_r{r}" for r in RIPLEY_RADII])


def _sql_ripley_k_counts() -> str:
    from .queries import _sql_dyadic_labels_cte

    cols = ",\n       ".join(
        f"CAST(SUM(CASE WHEN (a.label_x - b.label_x) * (a.label_x - b.label_x)"
        f" + (a.label_y - b.label_y) * (a.label_y - b.label_y)"
        f" <= {float(r * r)!r} THEN 1 ELSE 0 END) AS BIGINT) AS n_pairs_r{r}"
        for r in RIPLEY_RADII
    )
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()})
        SELECT {cols}
        FROM labels a JOIN labels b ON a.doc_num <> b.doc_num
    """


def q_cooccurrence_window_counts(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    # pass 1: the two most frequent words (bounded vocabulary)
    def unigrams(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        for t in batch.column("text").to_pylist():
            words.extend((t or "").lower().split())
        tbl = pa.table({"word": pa.array(words, type=pa.string())})
        out = tbl.group_by(["word"]).aggregate([("word", "count")])
        return pa.table({
            "word": out.column("word"),
            "n": pc.cast(out.column("word_count"), pa.int64()),
        })

    uni = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["text"])
        .map_batches(unigrams, batch_format="pyarrow", zero_copy_batch=True),
        ["word"], [("sum", "n", "n")],
    ).to_pandas().sort_values(["n", "word"],
                              ascending=[False, True])
    word_a, word_b = uni["word"].iloc[0], uni["word"].iloc[1]

    # pass 2: per-doc position lists, windowed pair count via searchsorted
    def cooc(batch: pa.Table) -> pa.Table:
        total = 0
        for t in batch.column("text").to_pylist():
            toks = (t or "").lower().split()
            pos_a = np.array([i for i, w in enumerate(toks) if w == word_a],
                             dtype=np.int64)
            pos_b = np.array([i for i, w in enumerate(toks) if w == word_b],
                             dtype=np.int64)
            if len(pos_a) and len(pos_b):
                lo = np.searchsorted(pos_b, pos_a - COOC_WINDOW, side="left")
                hi = np.searchsorted(pos_b, pos_a + COOC_WINDOW,
                                     side="right")
                total += int((hi - lo).sum())
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n_cooc": pa.array([total], type=pa.int64()),
        })

    agg = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["text"])
        .map_batches(cooc, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("sum", "n_cooc", "n_cooc")],
    ).to_pandas()

    import pandas as pd

    return pd.DataFrame({
        "word_a": [word_a],
        "word_b": [word_b],
        "window": [np.int64(COOC_WINDOW)],
        "n_cooc": [np.int64(int(agg.iloc[0]["n_cooc"]))],
    })


SQL_COOCCURRENCE_WINDOW_COUNTS = rf"""
WITH toks AS (
    SELECT regexp_extract_all(lower(text), '\S+') AS t FROM documents
),
uni AS (
    SELECT w AS word, COUNT(*) AS n
    FROM toks, LATERAL (SELECT unnest(t) AS w) GROUP BY w
),
top2 AS (
    SELECT word, ROW_NUMBER() OVER (ORDER BY n DESC, word ASC) AS rk
    FROM uni QUALIFY rk <= 2
),
wa AS (SELECT word FROM top2 WHERE rk = 1),
wb AS (SELECT word FROM top2 WHERE rk = 2),
pos AS (
    SELECT d.rn AS doc_rn, p.i, d.t[p.i] AS w
    FROM (SELECT ROW_NUMBER() OVER () AS rn,
                 regexp_extract_all(lower(text), '\S+') AS t
          FROM documents) d,
         LATERAL (SELECT unnest(generate_series(1, len(d.t))) AS i) p
),
pa_ AS (SELECT doc_rn, i FROM pos, wa WHERE w = wa.word),
pb_ AS (SELECT doc_rn, i FROM pos, wb WHERE w = wb.word)
SELECT (SELECT word FROM wa) AS word_a,
       (SELECT word FROM wb) AS word_b,
       CAST({COOC_WINDOW} AS BIGINT) AS window,
       CAST((SELECT COUNT(*) FROM pa_ a JOIN pb_ b
             ON a.doc_rn = b.doc_rn
            AND ABS(a.i - b.i) <= {COOC_WINDOW}) AS BIGINT) AS n_cooc
"""


def build_queries_ext81() -> dict:
    return {
        "ripley_k_counts": q_ripley_k_counts,
        "cooccurrence_window_counts": q_cooccurrence_window_counts,
    }


def build_oracles_ext81() -> dict:
    return {
        "ripley_k_counts": _sql_ripley_k_counts(),
        "cooccurrence_window_counts": SQL_COOCCURRENCE_WINDOW_COUNTS,
    }
