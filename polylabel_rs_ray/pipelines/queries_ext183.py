"""Round-3 extension operators, batch 183: Burrows-Wheeler transform +
Golomb-Rice parameter scan.

``doc_bwt`` — the Burrows-Wheeler transform (cyclic-rotation form, no
sentinel) of the corpus anchor document: rank → last column
character.  Equal rotations contribute equal last characters, so the
output is well-defined without a tiebreak.  The engine sorts
rotations directly (the bounded per-document unit, like the ext182
suffix index); the oracle materializes ``substr(s || s, i+1, L)``
rotations and window-ranks them in SQL.  Invertibility — the whole
point of the BWT — is pytest-pinned: the LF-mapping walk
reconstructs a cyclic rotation of the original text.

``rice_param_scan`` — the Golomb-Rice parameter sweep of an index
encoder: for the gap sequence of the distinct order days (sorted
diffs minus one, the delta-gap stream every posting list stores),
the exact bit cost at every Rice parameter k ∈ [0, 15] — unary
quotient (g >> k) + 1 stop bit + k remainder bits — plus the argmin
flag (ties to the smallest k).  Pure integer arithmetic both sides:
vectorized shifts vs SQL ``//`` power arithmetic.  The convexity of
the cost curve in k (decreasing then increasing around the optimum)
is pytest-checked loosely, and the chosen k beats fixed-width
encoding.

Reference anchors: compression/text-index families (SURVEY.md §2.4);
siblings: doc_suffix_array (the anchor-doc index unit), elias_code_
spectrum / varint_size_estimate / for_encoding_cost (integer-code
costs), dod_encoding_cost (delta streams).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

RICE_MAX_K = 15


# --------------------------------------------------------------------------
# doc_bwt
# --------------------------------------------------------------------------


def _anchor_text(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def pick(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        i = int(np.argmin(d))
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
    return str(anchor["packed"][0]).split("|", 1)[1]


def q_doc_bwt(sf_dir: str):
    import ray
    s = _anchor_text(sf_dir)
    L = len(s)
    doubled = s + s
    order = sorted(range(L), key=lambda i: doubled[i:i + L])
    bwt = [doubled[i + L - 1] for i in order]
    return ray.data.from_arrow(pa.table({
        "rank": pa.array(np.arange(L, dtype=np.int64)),
        "ch": pa.array(bwt, type=pa.string()),
    }))


SQL_DOC_BWT = """
WITH anchor AS MATERIALIZED (
  SELECT text AS s, length(text) AS L FROM documents
  WHERE doc_id = (SELECT MIN(doc_id) FROM documents)
), rot AS MATERIALIZED (
  SELECT substr(a.s || a.s, r.range + 1, a.L) AS rotation,
         substr(a.s || a.s, r.range + a.L, 1) AS last_ch
  FROM anchor a JOIN range(0, 8192) r ON r.range < a.L
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY rotation) - 1 AS BIGINT) AS rank,
       last_ch AS ch
FROM rot
"""


# --------------------------------------------------------------------------
# rice_param_scan
# --------------------------------------------------------------------------


def q_rice_param_scan(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "one": pa.array(np.ones(len(day), dtype=np.int64)),
        })

    daily = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderdate"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("count", None, "cnt")],
    ).to_pandas().sort_values("day")
    days = daily["day"].to_numpy().astype(np.int64)
    gaps = np.diff(days) - 1  # >= 0
    ks = np.arange(RICE_MAX_K + 1, dtype=np.int64)
    costs = np.array([int(((gaps >> int(k)) + 1 + int(k)).sum())
                      for k in ks], dtype=np.int64)
    best = int(ks[np.argmin(costs)])  # argmin takes smallest on ties
    return ray.data.from_arrow(pa.table({
        "k": pa.array(ks, type=pa.int64()),
        "total_bits": pa.array(costs, type=pa.int64()),
        "is_best": pa.array((ks == best).astype(np.int64)),
    }))


SQL_RICE_PARAM_SCAN = f"""
WITH days AS MATERIALIZED (
  SELECT DISTINCT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01'
                       AS BIGINT) AS day
  FROM orders
), gaps AS MATERIALIZED (
  SELECT day - LAG(day) OVER (ORDER BY day) - 1 AS g FROM days
  QUALIFY g IS NOT NULL
), ks AS (SELECT range AS k FROM range(0, {RICE_MAX_K + 1})
), cost AS MATERIALIZED (
  SELECT k.k,
         CAST(SUM(g.g // (1::BIGINT << k.k) + 1 + k.k) AS BIGINT)
           AS total_bits
  FROM ks k, gaps g GROUP BY 1
)
SELECT k, total_bits,
       CAST(CASE WHEN ROW_NUMBER() OVER (ORDER BY total_bits, k) = 1
            THEN 1 ELSE 0 END AS BIGINT) AS is_best
FROM cost
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext183():
    return {
        "doc_bwt": q_doc_bwt,
        "rice_param_scan": q_rice_param_scan,
    }


def build_oracles_ext183():
    return {
        "doc_bwt": SQL_DOC_BWT,
        "rice_param_scan": SQL_RICE_PARAM_SCAN,
    }
