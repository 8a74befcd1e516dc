"""Round-3 extension operators, batch 125: SQ8 1-NN label-consistency
audit + per-dimension quantization profile.

``sq8_1nn_label_audit`` — the leave-one-out 1-NN label-consistency
evaluation of the embedding space (the standard "is my embedding
model separating classes" check): for EVERY vector, the nearest OTHER
vector under the integer SQ8 L2 ADC (ties break to the smaller
vec_id via the packed ``(d2 << 40) | id`` key, the sq8_topk
discipline) and whether its label matches.  All-integer distances
make the oracle bit-exact including the distance column.  Scale
shape: the code matrix is SHARDED, never whole — vectors are
quantized in workers and the materialized Arrow blocks ARE the
shards (object-store resident, spillable); each scoring task streams
shard-by-shard with a running packed-key minimum, so memory is one
batch + one shard and the partition-local 1-NN + merge is fused into
the task (the ann_topk discipline).  The exact leave-one-out audit is
inherently O(N^2) compute — at a 100-TB corpus the k-NN join goes
through the LSH/IVF bucketing paths (embedding_near_dup / ivf_topk);
this exact form is for evaluation-split sized inputs.

``sq8_dim_profile`` — the quantization-table audit: per embedding
dimension, the exact int64 count, code sum and code square-sum of the
SQ8 codes (64-row bounded output; per-batch 64-row partials through
the map-side combine).  Catches min/max-stat drift and degenerate
dimensions (span collapsed to the epsilon guard).

Both replay DuckDB's quantization IEEE-exactly: float32 widened to
float64 (exact), ``floor(((x - mn) * 255.0) / span)`` in the same
operation order, clipped to [0, 255].

Reference anchors: similarity-search family (SURVEY.md §2.4);
siblings: sq8_topk (codes + packed-key tie discipline), ann_topk,
embedding_gram (integer-exact linear algebra), lang_confusion
(evaluation-split audit shape).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .queries_ext32 import _minmax, _quantize


_SQL_CODES = """
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
)
"""


# --------------------------------------------------------------------------
# sq8_1nn_label_audit
# --------------------------------------------------------------------------


class _ShardedNnScorer:
    """map_batches stage: batch rows vs the SHARDED code matrix.  Each
    shard is one worker-quantized Arrow block in the object store; the
    stage streams shard-by-shard keeping a running packed-key minimum per
    query row, so the partition-local 1-NN + merge happens inside the
    task with one shard resident at a time (the ann_topk discipline —
    never a whole-corpus object anywhere)."""

    def __init__(self, shard_refs, mn, span):
        self.shard_refs = shard_refs
        self.mn = mn
        self.span = span
        self._shards = None  # decoded lazily; numpy views over plasma

    def _shard_views(self):
        import ray

        if self._shards is None:
            views = []
            for ref in self.shard_refs:
                t = ray.get(ref)  # zero-copy plasma read (Arrow table)
                if t.num_rows == 0:
                    continue
                ids = t.column("vec_id").to_numpy().astype(np.int64)
                labels = t.column("label").to_numpy().astype(np.int64)
                code = t.column("code")
                if isinstance(code, pa.ChunkedArray):
                    code = code.combine_chunks()
                dim = code.type.list_size
                codes = code.values.to_numpy(zero_copy_only=False).reshape(
                    len(ids), dim)
                views.append((ids, labels, codes,
                              (codes * codes).sum(axis=1)))
            self._shards = views
        return self._shards

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .sim import embedding_matrix

        qc = _quantize(embedding_matrix(batch), self.mn, self.span)
        qids = batch.column("vec_id").to_numpy().astype(np.int64)
        qlab = batch.column("label").to_numpy().astype(np.int64)
        q2 = (qc * qc).sum(axis=1)
        nq = len(qids)
        rows = np.arange(nq)
        imax = np.iinfo(np.int64).max
        best_packed = np.full(nq, imax, dtype=np.int64)
        best_label = np.zeros(nq, dtype=np.int64)
        best_d2 = np.zeros(nq, dtype=np.int64)
        for ids, labels, codes, c2 in self._shard_views():
            d2 = q2[:, None] + c2[None, :] - 2 * (qc @ codes.T)
            packed = (d2 << np.int64(40)) | ids[None, :]
            packed[qids[:, None] == ids[None, :]] = imax
            j = np.argmin(packed, axis=1)
            cand = packed[rows, j]
            upd = cand < best_packed
            best_packed[upd] = cand[upd]
            best_label[upd] = labels[j][upd]
            best_d2[upd] = d2[rows, j][upd]
        nn_id = best_packed & ((np.int64(1) << np.int64(40)) - 1)
        return pa.table({
            "vec_id": pa.array(qids, type=pa.int64()),
            "label": pa.array(qlab, type=pa.int64()),
            "nn_id": pa.array(nn_id, type=pa.int64()),
            "nn_label": pa.array(best_label, type=pa.int64()),
            "nn_d2": pa.array(best_d2, type=pa.int64()),
            "same_label": pa.array((qlab == best_label).astype(np.int64),
                                   type=pa.int64()),
        })


def q_sq8_1nn_label_audit(sf_dir: str, n_shards: int | None = None):
    from .sim import embedding_matrix

    import ray
    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])

    # quantize in WORKERS; the materialized blocks are the code-matrix
    # shards (object-store resident, spillable, never concatenated)
    def encode(batch: pa.Table) -> pa.Table:
        c = _quantize(embedding_matrix(batch), mn, span)
        n, dim = c.shape
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "label": batch.column("label"),
            "code": pa.FixedSizeListArray.from_arrays(
                pa.array(c.ravel(), type=pa.int64()), dim),
        })

    coded = ds.map_batches(encode, batch_format="pyarrow",
                           zero_copy_batch=True)
    if n_shards is not None:
        coded = coded.repartition(n_shards)
    shard_refs = [r for r in coded.materialize().to_arrow_refs()]

    return ds.map_batches(_ShardedNnScorer(shard_refs, mn, span),
                          batch_format="pyarrow", zero_copy_batch=True)


# list-vectorized pair sweep: the per-DIMENSION unnest join form blows
# up to N^2 * 64 rows (25.6e9 at sf1 — DuckDB spilled past the disk);
# packing codes into DOUBLE lists keeps the pair relation at N^2 rows
# with one exact list_inner_product each (all values integers < 2^53,
# so DOUBLE arithmetic is exact), and the per-vec argmin runs as a
# GROUP BY MIN over the engine's own packed (d2 << 40) | id key — no
# 400M-row window sort, no spill.
SQL_SQ8_1NN_LABEL_AUDIT = _SQL_CODES + """
, packed AS (
  SELECT vec_id,
         CAST(LIST(CAST(code AS DOUBLE) ORDER BY d) AS DOUBLE[]) AS c,
         SUM(CAST(code AS HUGEINT) * code) AS s2
  FROM codes GROUP BY vec_id
), best AS (
  SELECT a.vec_id,
         MIN(CAST(a.s2 + b.s2
                  - CAST(2.0 * list_inner_product(a.c, b.c) AS HUGEINT)
              AS BIGINT) * (CAST(1 AS BIGINT) << 40) + b.vec_id) AS pk
  FROM packed a JOIN packed b ON a.vec_id <> b.vec_id
  GROUP BY a.vec_id
), nn AS (
  SELECT vec_id,
         pk & ((CAST(1 AS BIGINT) << 40) - 1) AS nn_id,
         pk >> 40 AS nn_d2
  FROM best
)
SELECT n.vec_id,
       CAST(ea.label AS BIGINT) AS label,
       n.nn_id,
       CAST(eb.label AS BIGINT) AS nn_label,
       n.nn_d2,
       CAST(CASE WHEN ea.label = eb.label THEN 1 ELSE 0 END AS BIGINT)
           AS same_label
FROM nn n
JOIN embeddings ea ON ea.vec_id = n.vec_id
JOIN embeddings eb ON eb.vec_id = n.nn_id
"""


# --------------------------------------------------------------------------
# sq8_dim_profile
# --------------------------------------------------------------------------


def q_sq8_dim_profile(sf_dir: str):
    from .agg import grouped_aggregate
    from .sim import embedding_matrix

    import ray
    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        c = _quantize(embedding_matrix(batch), mn, span)
        return pa.table({
            "d": pa.array(np.arange(1, c.shape[1] + 1), type=pa.int64()),
            "n": pa.array(np.full(c.shape[1], c.shape[0], dtype=np.int64)),
            "code_sum": pa.array(c.sum(axis=0), type=pa.int64()),
            "code_sq_sum": pa.array((c * c).sum(axis=0), type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["d"],
        [("sum", "n", "n"), ("sum", "code_sum", "code_sum"),
         ("sum", "code_sq_sum", "code_sq_sum")],
    )


SQL_SQ8_DIM_PROFILE = _SQL_CODES + """
SELECT CAST(d AS BIGINT) AS d,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(code) AS BIGINT) AS code_sum,
       CAST(SUM(code * code) AS BIGINT) AS code_sq_sum
FROM codes GROUP BY d
"""


def build_queries_ext125() -> dict:
    return {
        "sq8_1nn_label_audit": q_sq8_1nn_label_audit,
        "sq8_dim_profile": q_sq8_dim_profile,
    }


def build_oracles_ext125() -> dict:
    return {
        "sq8_1nn_label_audit": SQL_SQ8_1NN_LABEL_AUDIT,
        "sq8_dim_profile": SQL_SQ8_DIM_PROFILE,
    }
