"""Round-3 extension operators, batch 32: quantized similarity search.

``sq8_topk`` — scalar-quantized (SQ8) exact-ADC top-k: the FAISS
``IndexScalarQuantizer`` compression path.  Every embedding dimension is
affinely quantized to a uint8 code (per-dimension global min/max), and
nearest neighbours are ranked by the INTEGER L2 distance between code
vectors — 4x less memory traffic per vector than float32 brute force,
and the distance arithmetic is pure int64, so the DuckDB oracle matches
bit-for-bit INCLUDING the distance column (the float-cosine ``ann_topk``
oracle can only compare ranks).

Scale shape:

* pass 1 — per-dimension min/max: each batch emits a 64-row partial
  (O(dim), constant size); the reduce is a driver-side fold over
  O(dim x blocks) rows (bounded, annotated) — at deployment these are
  table statistics read from metadata, not recomputed,
* the (min, span) vectors and the quantized query codes broadcast once
  into the scorer stage,
* per batch: one uint8 quantization + one int64 Gram matmul
  ``d2 = |q|^2 + |v|^2 - 2 q.v`` (values <= 64 * 255^2 < 2^23 — no
  overflow), then a batch-local top-k on the packed ``(d2 << 40) | id``
  key so distance ties break by vec_id BEFORE the partial cut,
* final exact top-k per query over k x blocks candidate rows.

Quantization replay is IEEE-exact: both sides widen float32 -> float64
(exact), compute ``floor(((x - mn) * 255.0) / span)`` in the same
operation order, and clip to [0, 255].
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.util import group_map

N_QUERIES = 4
K = 5


def _minmax(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Distributed per-dimension min/max: 64-row partials per batch, bounded
    O(dim x blocks) driver fold (deployment: table stats from metadata)."""
    from .sim import embedding_matrix

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        m = embedding_matrix(batch)
        return pa.table({
            "d": pa.array(np.arange(m.shape[1]), type=pa.int64()),
            "mn": pa.array(m.min(axis=0), type=pa.float64()),
            "mx": pa.array(m.max(axis=0), type=pa.float64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    g = parts.groupby("d")
    mn = g["mn"].min().sort_index().to_numpy()
    mx = g["mx"].max().sort_index().to_numpy()
    return mn, mx


def _quantize(m: np.ndarray, mn: np.ndarray, span: np.ndarray) -> np.ndarray:
    q = np.floor(((m - mn[None, :]) * 255.0) / span[None, :])
    return np.clip(q, 0.0, 255.0).astype(np.int64)


class Sq8Scorer:
    """map_batches stage: quantize the batch, integer-L2 against the
    broadcast query codes, emit the batch-local top-k per query (packed-key
    selection keeps the (d2, vec_id) tie order exact through the cut)."""

    def __init__(self, mn: np.ndarray, span: np.ndarray,
                 qcodes: np.ndarray, qids: np.ndarray, k: int):
        self.mn = mn
        self.span = span
        self.qc = qcodes  # (Q, dim) int64
        self.q2 = (qcodes * qcodes).sum(axis=1)  # (Q,)
        self.qids = qids
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .sim import embedding_matrix

        vc = _quantize(embedding_matrix(batch), self.mn, self.span)  # (B, dim)
        vids = batch.column("vec_id").to_numpy().astype(np.int64)
        v2 = (vc * vc).sum(axis=1)
        d2 = self.q2[:, None] + v2[None, :] - 2 * (self.qc @ vc.T)  # (Q, B) int64
        packed = (d2 << np.int64(40)) | vids[None, :]
        k = min(self.k, packed.shape[1])
        idx = np.argpartition(packed, k - 1, axis=1)[:, :k]
        return pa.table({
            "query_id": pa.array(np.repeat(self.qids, k), type=pa.int64()),
            "vec_id": pa.array(vids[idx.ravel()], type=pa.int64()),
            "d2": pa.array(np.take_along_axis(d2, idx, axis=1).ravel(), type=pa.int64()),
        })


def q_sq8_topk(sf_dir: str, n_queries: int = N_QUERIES, k: int = K):
    import pyarrow.parquet as pq

    from .sim import embedding_matrix

    import ray
    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).slice(0, n_queries)
    qcodes = _quantize(embedding_matrix(qt), mn, span)
    qids = qt.column("vec_id").to_numpy().astype(np.int64)

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    scored = ds.map_batches(Sq8Scorer(mn, span, qcodes, qids, k),
                            batch_format="pyarrow", zero_copy_batch=True)

    def reduce_group(group: pa.Table) -> pa.Table:
        d = group.column("d2").to_numpy().astype(np.int64)
        v = group.column("vec_id").to_numpy().astype(np.int64)
        order = np.lexsort((v, d))[:k]
        return pa.table({
            "query_id": group.column("query_id").slice(0, 1).take(
                pa.array([0] * len(order))
            ),
            "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
            "vec_id": pa.array(v[order], type=pa.int64()),
            "d2": pa.array(d[order], type=pa.int64()),
        })

    return group_map(scored, "query_id", reduce_group)


SQL_SQ8_TOPK = f"""
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
  SELECT v.vec_id, v.d,
         LEAST(255, GREATEST(0,
             CAST(FLOOR(((v.x - s.mn) * 255.0) / s.span) AS BIGINT))) AS code
  FROM dims v JOIN stats s USING (d)
), qcodes AS (
  SELECT * FROM codes WHERE vec_id < {N_QUERIES}
), dist AS (
  SELECT q.vec_id AS query_id, c.vec_id,
         SUM((q.code - c.code) * (q.code - c.code)) AS d2
  FROM qcodes q JOIN codes c ON q.d = c.d
  GROUP BY q.vec_id, c.vec_id
), ranked AS (
  SELECT query_id, vec_id, CAST(d2 AS BIGINT) AS d2,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY d2, vec_id) AS rank
  FROM dist
)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id, d2
FROM ranked WHERE rank <= {K}
"""


def build_queries_ext32() -> dict:
    return {"sq8_topk": q_sq8_topk}


def build_oracles_ext32() -> dict:
    return {"sq8_topk": SQL_SQ8_TOPK}
