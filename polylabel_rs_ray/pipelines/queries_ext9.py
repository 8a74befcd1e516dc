"""Round-2 extension operators, batch 10: grouped vector math (the
k-means/IVF training step, made exact).

* ``label_centroids`` — per-label mean embedding as integer partial
  sums: each batch reduces its vectors into an O(labels x dim) partial
  (micro-quantized int64), one map-side-combined aggregate finishes.
  Long-form output (label, dim, sum_q_micro, n_vecs) keeps everything
  integer-exact — the mean is the consumer's division.
* ``vq_assign`` — vector-quantization assignment: every vector mapped
  to its nearest micro-quantized label centroid (squared L2 in integer
  micro^2 units, deterministic label-asc tiebreak).  The centroid
  matrix is O(labels x dim) — broadcast once, distances vectorized per
  batch; the oracle replays the identical quantized arithmetic."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _emb_matrix(batch: pa.Table):
    emb = batch.column("embedding")
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    offsets = emb.offsets.to_numpy()
    widths = np.diff(offsets)
    vals = emb.values.to_numpy().astype(np.float64)
    assert len(widths) == 0 or widths.max() == widths.min(), "ragged embeddings"
    d = int(widths[0]) if len(widths) else 0
    # micro quantization with SQL ROUND's half-AWAY-from-zero tie rule
    # (np.rint is half-to-even: a float32 embedding value landing exactly
    # on a .5 micro boundary — e.g. 0.2578125 * 1e6 = 257812.5, found by
    # the sf1 scale sweep — would silently diverge from the oracle)
    t = vals * 1e6
    q = (np.trunc(t + np.copysign(0.5, t)).astype(np.int64).reshape(-1, d)
         if d else np.zeros((0, 0), np.int64))
    return q, d


def q_label_centroids(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        q, d = _emb_matrix(batch)
        lab = batch.column("label").to_numpy().astype(np.int64)
        if len(lab) == 0 or d == 0:
            return pa.table({
                "label": pa.array([], type=pa.int64()),
                "dim": pa.array([], type=pa.int64()),
                "sum_q_micro": pa.array([], type=pa.int64()),
                "n_vecs": pa.array([], type=pa.int64()),
            })
        uniq, inv, cnt = np.unique(lab, return_inverse=True, return_counts=True)
        acc = np.zeros((len(uniq), d), dtype=np.int64)
        np.add.at(acc, inv, q)
        L = len(uniq)
        return pa.table({
            "label": pa.array(np.repeat(uniq, d), type=pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), L),
                            type=pa.int64()),
            "sum_q_micro": pa.array(acc.ravel(), type=pa.int64()),
            "n_vecs": pa.array(np.repeat(cnt.astype(np.int64), d), type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["label", "dim"],
        [("sum", "sum_q_micro", "sum_q_micro"), ("sum", "n_vecs", "n_vecs")],
    )


SQL_LABEL_CENTROIDS = """
    WITH e AS (
        SELECT CAST(label AS BIGINT) AS label,
               UNNEST(list_zip(embedding,
                               generate_series(1, len(embedding)))) AS z
        FROM embeddings
    )
    SELECT label, CAST(z[2] AS BIGINT) AS dim,
           CAST(SUM(CAST(ROUND(CAST(z[1] AS DOUBLE) * 1000000) AS BIGINT))
                AS BIGINT) AS sum_q_micro,
           CAST(COUNT(*) AS BIGINT) AS n_vecs
    FROM e GROUP BY 1, 2
"""


def centroid_matrix(sf_dir: str):
    """(sorted labels, (L, d) int64 micro-quantized centroid matrix) from
    the distributed partial sums — O(labels x dim) driver-side."""
    cent = q_label_centroids(sf_dir).to_pandas()
    labels = np.sort(cent["label"].unique())
    d = int(cent["dim"].max())
    C = np.zeros((len(labels), d), dtype=np.int64)
    li = np.searchsorted(labels, cent["label"].to_numpy())
    # c_i = round(sum / n): exact-int inputs -> identical double division;
    # SQL ROUND is half-AWAY-from-zero (np.rint is half-even and diverges
    # on the exact .5 quotients integer division produces)
    ratio = cent["sum_q_micro"].to_numpy() / cent["n_vecs"].to_numpy()
    C[li, cent["dim"].to_numpy() - 1] = np.trunc(
        ratio + np.copysign(0.5, ratio)
    ).astype(np.int64)
    return labels, C


def q_vq_assign(sf_dir: str):
    import ray
    labels, C = centroid_matrix(sf_dir)
    C_ref = ray.put(C)
    lab_ref = ray.put(labels)
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def assign(batch: pa.Table) -> pa.Table:
        import ray

        C = ray.get(C_ref)
        labels = ray.get(lab_ref)
        q, d = _emb_matrix(batch)
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        if len(vid) == 0:
            return pa.table({
                "vec_id": pa.array([], type=pa.int64()),
                "nearest_label": pa.array([], type=pa.int64()),
                "dist_sq_micro": pa.array([], type=pa.int64()),
            })
        # exact int64: |q|^2 + |c|^2 - 2 q.c  (micro units: fits easily)
        qq = np.einsum("ij,ij->i", q, q)
        cc = np.einsum("ij,ij->i", C, C)
        qc = q @ C.T
        dist = qq[:, None] + cc[None, :] - 2 * qc
        best = np.argmin(dist, axis=1)  # first (smallest label) wins ties
        return pa.table({
            "vec_id": pa.array(vid, type=pa.int64()),
            "nearest_label": pa.array(labels[best], type=pa.int64()),
            "dist_sq_micro": pa.array(dist[np.arange(len(vid)), best],
                                      type=pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


SQL_VQ_ASSIGN = """
    WITH e AS (
        SELECT vec_id, CAST(label AS BIGINT) AS label,
               UNNEST(list_zip(embedding,
                               generate_series(1, len(embedding)))) AS z
        FROM embeddings
    ),
    v AS (SELECT vec_id, CAST(z[2] AS BIGINT) AS dim,
                 CAST(ROUND(CAST(z[1] AS DOUBLE) * 1000000) AS BIGINT) AS q
          FROM e),
    cent AS (
        SELECT label, CAST(z[2] AS BIGINT) AS dim,
               CAST(ROUND(CAST(SUM(CAST(ROUND(CAST(z[1] AS DOUBLE) * 1000000)
                                        AS BIGINT)) AS DOUBLE) / COUNT(*))
                    AS BIGINT) AS c
        FROM e GROUP BY 1, 2
    ),
    dists AS (
        SELECT v.vec_id, cent.label,
               SUM((v.q - cent.c) * (v.q - cent.c)) AS dist
        FROM v JOIN cent USING (dim)
        GROUP BY 1, 2
    )
    SELECT vec_id, CAST(label AS BIGINT) AS nearest_label,
           CAST(dist AS BIGINT) AS dist_sq_micro
    FROM dists
    QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                               ORDER BY dist ASC, label ASC) = 1
"""


def build_queries_ext9() -> dict:
    return {
        "label_centroids": q_label_centroids,
        "vq_assign": q_vq_assign,
    }


def build_oracles_ext9() -> dict:
    return {
        "label_centroids": SQL_LABEL_CENTROIDS,
        "vq_assign": SQL_VQ_ASSIGN,
    }
