"""Round-3 extension operators, batch 49: distributed linear algebra.

``embedding_gram`` — the exact Gram / second-moment matrix ``X^T X``
over the (SQ8-quantized) embedding table: the mergeable-monoid building
block behind distributed PCA, covariance estimation, linear probes and
whitening.  Each batch contributes one CONSTANT-SIZE partial (a dim x dim
integer matrix — the defining scale property: the reduce is O(dim^2)
regardless of corpus size); partials sum exactly because the codes are
integers (the same reason the sq8_topk distances are oracle-exact).

The emitted result is the upper triangle of the first 8 dimensions
(36 rows ``(d1, d2, gram)``) — the full 64x64 accumulates identically,
but the SQL replay unnests per-dimension rows and a 64x64 oracle join
would dominate the sweep; 8 dims already prove every moving part
(quantize -> per-batch matmul -> exact merge).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

GRAM_DIMS = 8


def q_embedding_gram(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries_ext32 import _minmax, _quantize

    import ray
    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)
    d = GRAM_DIMS
    iu = np.triu_indices(d)

    def partial(batch: pa.Table) -> pa.Table:
        from .sim import embedding_matrix

        codes = _quantize(embedding_matrix(batch), mn, span)[:, :d]  # (B, d)
        gram = codes.T @ codes  # (d, d) int64 — constant-size partial
        return pa.table({
            "d1": pa.array(iu[0].astype(np.int64), type=pa.int64()),
            "d2": pa.array(iu[1].astype(np.int64), type=pa.int64()),
            "gram": pa.array(gram[iu], type=pa.int64()),
        })

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["d1", "d2"], [("sum", "gram", "gram")],
    )


def _sql_embedding_gram() -> str:
    # replay of the SQ8 quantization (same arithmetic as queries_ext32)
    # restricted to the first GRAM_DIMS dims, then exact integer moments
    d = GRAM_DIMS
    return f"""
WITH dims AS (
  SELECT vec_id,
         generate_subscripts(embedding, 1) AS d,
         CAST(UNNEST(embedding) AS DOUBLE) AS x
  FROM embeddings
), stats AS (
  SELECT d, MIN(x) AS mn,
         CASE WHEN MAX(x) > MIN(x) THEN MAX(x) - MIN(x) ELSE 1.0 END AS span
  FROM dims GROUP BY d
), codes AS (
  SELECT v.vec_id, v.d - 1 AS d,
         LEAST(255, GREATEST(0,
             CAST(FLOOR(((v.x - s.mn) * 255.0) / s.span) AS BIGINT))) AS code
  FROM dims v JOIN stats s USING (d)
  WHERE v.d <= {d}
)
SELECT a.d AS d1, b.d AS d2,
       CAST(SUM(a.code * b.code) AS BIGINT) AS gram
FROM codes a JOIN codes b ON a.vec_id = b.vec_id AND a.d <= b.d
GROUP BY a.d, b.d
"""


def build_queries_ext49() -> dict:
    return {"embedding_gram": q_embedding_gram}


def build_oracles_ext49() -> dict:
    return {"embedding_gram": _sql_embedding_gram()}
