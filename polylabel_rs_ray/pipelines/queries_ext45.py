"""Round-3 extension operators, batch 45: model-evaluation statistics.

The eval half of a data+model pipeline, computed distributed and
oracle-exactly:

* ``quality_auc`` — ROC AUC of the stopword-RATE quality signal
  (``100 * hits // tokens``, the length-normalized integer score — raw
  hit counts are length-confounded) as a detector for ``lang = 'en'``,
  via the Mann-Whitney rank identity on a BOUNDED score histogram
  (scores are 0..100): with per-score positive/negative counts
  ``p_s, n_s`` and ``below_s`` = negatives at strictly lower scores,

      AUC = sum_s p_s * (2*below_s + n_s) / (2 * P * N)

  (ties get half credit) — exact integer numerator/denominator, one
  float division.  The corpus scan is a stateless map with map-side
  combined (score, pos/neg) partials; the histogram (<= max-score rows)
  folds on the driver.
* ``lang_confusion`` — the confusion matrix of the ``lang_id``
  heuristic against the table's true lang column: a bounded
  (true, predicted) count aggregate over the existing pipeline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def auc_from_hist(p: np.ndarray, ng: np.ndarray) -> tuple[int, int, int, float]:
    """(P, N, num2, auc) from per-score pos/neg counts sorted by score
    ascending — the Mann-Whitney identity with half-credit ties."""
    p = np.asarray(p, dtype=object)
    ng = np.asarray(ng, dtype=object)
    below = np.concatenate([[0], np.cumsum(ng)[:-1]]) if len(ng) else np.array([])
    num2 = int(sum(p * (2 * below + ng))) if len(p) else 0
    P, N = int(sum(p)), int(sum(ng))
    auc = 0.0 if P == 0 or N == 0 else float(num2) / float(2 * P * N)
    return P, N, num2, auc


def q_quality_auc(sf_dir: str):
    from .agg import grouped_aggregate
    from .text import quality_batch

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        q = quality_batch(
            text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
        )
        hits = q.column("stopword_hits").to_numpy().astype(np.int64)
        toks = q.column("n_tokens").to_numpy().astype(np.int64)
        s = 100 * hits // np.maximum(toks, 1)
        pos = pc.equal(batch.column("lang"), "en").to_numpy(
            zero_copy_only=False).astype(np.int64)
        t = pa.table({
            "s": pa.array(s),
            "p": pa.array(pos),
            "ng": pa.array(1 - pos),
        })
        out = t.group_by(["s"]).aggregate([("p", "sum"), ("ng", "sum")])
        return pa.table({
            "s": out.column("s"),
            "p": pc.cast(out.column("p_sum"), pa.int64()),
            "ng": pc.cast(out.column("ng_sum"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["s"], [("sum", "p", "p"), ("sum", "ng", "ng")],
    ).to_pandas().sort_values("s")  # bounded: one row per distinct score

    P, N, num2, auc = auc_from_hist(hist["p"].to_numpy(), hist["ng"].to_numpy())
    t = pa.table({
        "n_pos": pa.array([P], type=pa.int64()),
        "n_neg": pa.array([N], type=pa.int64()),
        "num2": pa.array([num2], type=pa.int64()),
        "auc": pa.array([auc], type=pa.float64()),
    })
    return ray.data.from_arrow(t)


def _sql_quality_auc() -> str:
    stop = ("len(list_filter(regexp_extract_all(lower(text), '\\S+'), "
            "t -> t IN ('the','and','of','to','a','in','is','it','that','for')))")
    toks = "len(regexp_extract_all(text, '\\S+'))"
    return f"""
WITH d AS (
  SELECT CAST(100 * {stop} // GREATEST({toks}, 1) AS BIGINT) AS s,
         CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS p
  FROM documents
), h AS (
  SELECT s, CAST(SUM(p) AS BIGINT) AS p, CAST(SUM(1 - p) AS BIGINT) AS ng
  FROM d GROUP BY s
), c AS (
  SELECT s, p, ng,
         COALESCE(SUM(ng) OVER (ORDER BY s
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS below
  FROM h
)
SELECT CAST(SUM(p) AS BIGINT) AS n_pos,
       CAST(SUM(ng) AS BIGINT) AS n_neg,
       CAST(SUM(p * (2 * below + ng)) AS BIGINT) AS num2,
       CASE WHEN SUM(p) = 0 OR SUM(ng) = 0 THEN 0.0
            ELSE CAST(SUM(p * (2 * below + ng)) AS DOUBLE)
                 / CAST(2 * SUM(p) * SUM(ng) AS DOUBLE)
       END AS auc
FROM c
"""


def q_lang_confusion(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import q_lang_id

    return grouped_aggregate(
        q_lang_id(sf_dir), ["lang", "pred_lang"], [("count", None, "n")]
    )


def _sql_lang_confusion() -> str:
    from .queries import _sql_lang_id

    return f"""
WITH pred AS ({_sql_lang_id()})
SELECT lang, pred_lang, CAST(COUNT(*) AS BIGINT) AS n
FROM pred GROUP BY lang, pred_lang
"""


def build_queries_ext45() -> dict:
    return {
        "quality_auc": q_quality_auc,
        "lang_confusion": q_lang_confusion,
    }


def build_oracles_ext45() -> dict:
    return {
        "quality_auc": _sql_quality_auc(),
        "lang_confusion": _sql_lang_confusion(),
    }
