"""Similarity search over the embeddings table.

* ``ann_topk_pipeline`` — brute-force cosine top-k: the query matrix is tiny
  and broadcast once (``ray.put`` semantics: serialized into the stage, one
  object-store copy, read by every task); each batch computes a vectorized
  matmul and emits only its local top-k per query, so the final exact top-k
  reduction sees k*num_batches rows, not the whole table.
* ``ivf_topk_pipeline`` — the scale path: coarse centroids (broadcast)
  bucket vectors; queries probe only the nearest ``nprobe`` buckets.
  Approximate; recall measured against the brute-force baseline in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.util import group_map


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


def embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // len(arr)
    return flat.reshape(len(arr), dim)


class AnnScorer:
    """map_batches stage: per-batch exact cosine scores against the
    broadcast query matrix; emits the batch-local top-k per query."""

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray, k: int):
        self.q = _unit(np.asarray(queries, dtype=np.float64))
        self.qids = np.asarray(query_ids, dtype=np.int64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _unit(embedding_matrix(batch))
        vids = batch.column("vec_id").to_numpy().astype(np.int64)
        scores = self.q @ vecs.T  # (Q, B)
        k = min(self.k, scores.shape[1])
        # batch-local top-k per query (partial reduction before the shuffle)
        idx = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        rows_q = np.repeat(self.qids, k)
        rows_v = vids[idx.ravel()]
        rows_s = np.take_along_axis(scores, idx, axis=1).ravel()
        return pa.table({
            "query_id": pa.array(rows_q, type=pa.int64()),
            "vec_id": pa.array(rows_v, type=pa.int64()),
            "score": pa.array(rows_s, type=pa.float64()),
        })


def topk_reduce(group: pa.Table, k: int) -> pa.Table:
    s = group.column("score").to_numpy()
    v = group.column("vec_id").to_numpy()
    order = np.lexsort((v, -s))[:k]
    return pa.table({
        "query_id": group.column("query_id").slice(0, 1).take(pa.array([0] * len(order))),
        "rank": pa.array(np.arange(1, len(order) + 1), type=pa.int64()),
        "vec_id": pa.array(v[order], type=pa.int64()),
        "score": pa.array(s[order], type=pa.float64()),
    })


def ann_topk_pipeline(sf_dir: str, n_queries: int = 3, k: int = 5):
    """Exact top-k cosine: broadcast queries -> per-batch partial top-k ->
    groupby(query_id) final top-k.  Deterministic ties broken by vec_id."""
    import pyarrow.parquet as pq
    import ray

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).slice(0, n_queries)
    qm = embedding_matrix(qt)
    qids = qt.column("vec_id").to_numpy().astype(np.int64)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    scored = ds.map_batches(AnnScorer(qm, qids, k), batch_format="pyarrow",
                            zero_copy_batch=True)

    def reduce_group(group: pa.Table) -> pa.Table:
        return topk_reduce(group, k)

    return group_map(scored, "query_id", reduce_group)


class IvfScorer:
    """IVF probe stage: vectors assigned to nearest centroid (once, in this
    stage); only vectors whose centroid is among each query's ``nprobe``
    nearest centroids are scored."""

    def __init__(self, centroids: np.ndarray, queries: np.ndarray,
                 query_ids: np.ndarray, k: int, nprobe: int):
        self.c = _unit(np.asarray(centroids, dtype=np.float64))
        self.q = _unit(np.asarray(queries, dtype=np.float64))
        self.qids = np.asarray(query_ids, dtype=np.int64)
        self.k = k
        qc = self.q @ self.c.T  # (Q, C)
        npb = min(nprobe, qc.shape[1])
        self.probe = np.argpartition(-qc, npb - 1, axis=1)[:, :npb]  # (Q, nprobe)

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _unit(embedding_matrix(batch))
        vids = batch.column("vec_id").to_numpy().astype(np.int64)
        assign = np.argmax(vecs @ self.c.T, axis=1)  # (B,)
        parts = {"query_id": [], "vec_id": [], "score": []}
        for qi, qid in enumerate(self.qids):
            mask = np.isin(assign, self.probe[qi])
            if not mask.any():
                continue
            sub = vecs[mask]
            scores = sub @ self.q[qi]
            k = min(self.k, len(scores))
            idx = np.argpartition(-scores, k - 1)[:k]
            parts["query_id"].append(np.full(k, qid, dtype=np.int64))
            parts["vec_id"].append(vids[mask][idx])
            parts["score"].append(scores[idx])
        if not parts["query_id"]:
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            })
        return pa.table({
            "query_id": pa.array(np.concatenate(parts["query_id"]), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(parts["vec_id"]), type=pa.int64()),
            "score": pa.array(np.concatenate(parts["score"]), type=pa.float64()),
        })


def kmeans_refine(sample: np.ndarray, n_centroids: int, iters: int = 5) -> np.ndarray:
    """A few deterministic Lloyd iterations (cosine/spherical) on a sample —
    the centroid-training step of a real IVF index, done driver-side on a
    small sample; the big table only ever sees the broadcast centroids."""
    u = _unit(sample)
    c = u[:n_centroids].copy()
    for _ in range(iters):
        c = _unit(c)
        assign = np.argmax(u @ c.T, axis=1)
        for j in range(n_centroids):
            members = u[assign == j]
            if len(members):
                c[j] = members.mean(axis=0)
    return _unit(c)


def kmeans_distributed(ds, seed: np.ndarray, iters: int = 3) -> np.ndarray:
    """Spherical Lloyd iterations over the FULL dataset, distributed: each
    iteration is one streamed ``map_batches`` pass emitting per-batch
    partial (per-centroid sum, count) rows — the driver reduces O(batches)
    fixed-size partials, never vectors.  Deterministic given the seed."""
    C, D = seed.shape
    c = _unit(np.asarray(seed, dtype=np.float64))
    for _ in range(iters):
        cc = c.copy()

        def partials(batch: pa.Table) -> pa.Table:
            m = _unit(embedding_matrix(batch))
            a = np.argmax(m @ cc.T, axis=1)
            sums = np.zeros((C, m.shape[1]))
            np.add.at(sums, a, m)
            cnt = np.bincount(a, minlength=C).astype(np.int64)
            return pa.table({
                "sums": pa.array([sums.ravel()], type=pa.list_(pa.float64())),
                "cnt": pa.array([cnt], type=pa.list_(pa.int64())),
            })

        p = ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
        S = np.zeros((C, D))
        N = np.zeros(C, dtype=np.int64)
        for srow, nrow in zip(p["sums"], p["cnt"]):
            S += np.asarray(srow, dtype=np.float64).reshape(C, D)
            N += np.asarray(nrow, dtype=np.int64)
        nz = N > 0
        c = c.copy()
        c[nz] = S[nz] / N[nz, None]
        c = _unit(c)
    return c


def ivf_topk_pipeline(sf_dir: str, n_queries: int = 3, k: int = 5,
                      n_centroids: int = 16, nprobe: int = 4):
    import pyarrow.parquet as pq
    import ray

    head = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).slice(0, max(256, n_queries))
    m = embedding_matrix(head)
    # seed from the head sample (driver-side, deterministic), then refine on
    # the WHOLE table with distributed Lloyd passes
    seed = kmeans_refine(m, n_centroids)
    full = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    centroids = kmeans_distributed(full, seed, iters=2)
    qm = m[:n_queries]
    qids = head.column("vec_id").to_numpy().astype(np.int64)[:n_queries]

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    scored = ds.map_batches(IvfScorer(centroids, qm, qids, k, nprobe),
                            batch_format="pyarrow", zero_copy_batch=True)

    def reduce_group(group: pa.Table) -> pa.Table:
        return topk_reduce(group, k)

    return group_map(scored, "query_id", reduce_group)


class IvfSq8Scorer:
    """map_batches stage for the EXACT IVF search: per batch, assign each
    vector to its float-cosine-nearest centroid (deterministic, identical
    in every pass), quantize to SQ8 codes, and score rows falling in each
    query's candidate cells with the integer L2 ADC ``d2 = |q|^2 + |v|^2
    - 2 q.v``; emits the batch-local top-k per query through the packed
    ``(d2 << 40) | vec_id`` key so distance ties break by vec_id before
    the partial cut (the sq8_topk discipline)."""

    def __init__(self, centroids: np.ndarray, qcodes: np.ndarray,
                 query_ids: np.ndarray, cand_cells: list, k: int,
                 mn: np.ndarray, span: np.ndarray):
        self.c = _unit(np.asarray(centroids, dtype=np.float64))
        self.qc = np.asarray(qcodes, dtype=np.int64)
        # packed-key ramp guard: (d2 << 40) | vec_id needs d2 < 2^23 —
        # max d2 = dim * 255^2, so dim <= 128 with 8-bit codes — and
        # vec_id < 2^40; a larger embedding dim or id would overflow into
        # the sign bit and silently corrupt top-k order, so fail loudly
        dim = self.qc.shape[1]
        if dim * 255 ** 2 >= (1 << 23):
            raise ValueError(
                f"IvfSq8Scorer packed key overflows: dim={dim} gives max "
                f"d2={dim * 255 ** 2} >= 2^23; repack with a wider shift")
        self.q2 = (self.qc * self.qc).sum(axis=1)
        self.qids = np.asarray(query_ids, dtype=np.int64)
        self.cand = [np.asarray(c, dtype=np.int64) for c in cand_cells]
        self.k = k
        self.mn = mn
        self.span = span

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..pipelines.queries_ext32 import _quantize

        vecs = embedding_matrix(batch)
        vids = batch.column("vec_id").to_numpy().astype(np.int64)
        assign = np.argmax(_unit(vecs) @ self.c.T, axis=1)
        vc = _quantize(vecs, self.mn, self.span)
        v2 = (vc * vc).sum(axis=1)
        if len(vids) and int(vids.max()) >= (1 << 40):
            raise ValueError("IvfSq8Scorer packed key overflows: vec_id >= 2^40")
        out_q, out_v, out_d = [], [], []
        for qi, qid in enumerate(self.qids):
            mask = np.isin(assign, self.cand[qi])
            if not mask.any():
                continue
            d2 = self.q2[qi] + v2[mask] - 2 * (vc[mask] @ self.qc[qi])
            packed = (d2 << np.int64(40)) | vids[mask]
            k = min(self.k, len(packed))
            idx = np.argpartition(packed, k - 1)[:k]
            out_q.append(np.full(k, qid, dtype=np.int64))
            out_v.append(vids[mask][idx])
            out_d.append(d2[idx])
        if not out_q:
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "d2": pa.array([], type=pa.int64()),
            })
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
            "d2": pa.array(np.concatenate(out_d), type=pa.int64()),
        })


def ivf_topk_exact_pipeline(sf_dir: str, n_queries: int = 3, k: int = 5,
                            n_centroids: int = 16, nprobe: int = 4):
    """IVF top-k made EXACT — and therefore SQL-oracle-able — via the L2
    triangle bound, while keeping the inverted-file structure that makes
    IVF the scale path:

    * centroids: deterministic spherical k-means (head-sample seed +
      distributed Lloyd), float — they only decide cell MEMBERSHIP,
    * metric: integer SQ8 ADC distance between codes (bit-exact in SQL),
    * exactness: for any vector x in cell j,
      ``d(q,x) >= d(q,cc_j) - r_j`` (triangle inequality in code space,
      r_j = the cell's max member-to-centroid-code distance), so after an
      ``nprobe``-cell probe pass establishes an upper bound U = kth-best
      d2, every cell with ``d(q,cc_j) - r_j > sqrt(U)`` provably holds no
      top-k member and is skipped; the final pass scans only surviving
      cells.  Oracle: the exhaustive integer top-k (SQL_SQ8_TOPK shape).

    Passes stream the raw table here; the deployment shape checkpoints
    (cell, code) partitioned by cell — the probe/final passes then read
    only candidate-cell partitions (the IVF point at 10^12 rows).
    Centroid codes quantize the unit-sphere centroids with the corpus
    (mn, span); any reference point keeps the bound VALID — a raw-space
    mean would merely tighten it."""
    import pyarrow.parquet as pq
    import ray

    from ..pipelines.queries_ext32 import _minmax, _quantize

    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)

    head = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).slice(0, max(256, n_queries))
    m = embedding_matrix(head)
    seed = kmeans_refine(m, n_centroids)
    full = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["embedding"])
    centroids = kmeans_distributed(full, seed, iters=2)
    c_unit = _unit(centroids)
    ccodes = _quantize(c_unit, mn, span)  # (C, dim) int64 reference points

    qm = m[:n_queries]
    qids = head.column("vec_id").to_numpy().astype(np.int64)[:n_queries]
    qcodes = _quantize(qm, mn, span)
    q2 = (qcodes * qcodes).sum(axis=1)
    c2 = (ccodes * ccodes).sum(axis=1)
    d2_qc = q2[:, None] + c2[None, :] - 2 * (qcodes @ ccodes.T)  # (Q, C)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    # --- pass 1: per-cell radius (max member->centroid-code distance) ----
    def radius_partial(batch: pa.Table) -> pa.Table:
        vecs = embedding_matrix(batch)
        assign = np.argmax(_unit(vecs) @ c_unit.T, axis=1)
        vc = _quantize(vecs, mn, span)
        dd = ((vc - ccodes[assign]) ** 2).sum(axis=1)
        r = np.zeros(len(ccodes), dtype=np.int64)
        np.maximum.at(r, assign, dd)
        return pa.table({
            "cell": pa.array(np.arange(len(ccodes)), type=pa.int64()),
            "r2": pa.array(r, type=pa.int64()),
        })

    rp = ds.map_batches(radius_partial, batch_format="pyarrow",
                        zero_copy_batch=True).to_pandas()  # 16 rows/batch
    r2 = rp.groupby("cell")["r2"].max().reindex(
        range(len(ccodes)), fill_value=0).to_numpy()
    radius = np.sqrt(r2.astype(np.float64))

    # --- pass 2: probe the nprobe nearest cells -> upper bound U ---------
    npb = min(nprobe, d2_qc.shape[1])
    probe = np.argpartition(d2_qc, npb - 1, axis=1)[:, :npb]
    probed = ds.map_batches(
        IvfSq8Scorer(centroids, qcodes, qids,
                     [probe[i] for i in range(len(qids))], k, mn, span),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).to_pandas()  # <= k x batches rows — bounded partial top-k table
    U = np.full(len(qids), np.inf)
    for qi, qid in enumerate(qids):
        d = np.sort(probed.loc[probed["query_id"] == qid, "d2"].to_numpy())
        if len(d) >= k:
            U[qi] = float(d[k - 1])

    # --- pass 3: scan only cells the triangle bound cannot exclude ------
    d_qc = np.sqrt(d2_qc.astype(np.float64))
    cand_cells = []
    for qi in range(len(qids)):
        lb = d_qc[qi] - radius  # lower bound on any member's distance
        cand_cells.append(np.flatnonzero(lb <= np.sqrt(U[qi]) + 1e-9))
    scored = ds.map_batches(
        IvfSq8Scorer(centroids, qcodes, qids, cand_cells, k, mn, span),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

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
