"""Round-3 extension operators, batch 164: minimal half-revenue item
counts + embedding sign-bit Hamming spectrum.

``half_revenue_item_count`` — per order, the MINIMUM number of
lineitems whose extendedprice (exact cents) reaches at least half the
order total.  Greedy-by-descending-price is provably optimal here: a
size-k subset's sum is bounded by the k largest items' sum, so the
threshold is reachable at size k iff the top-k prefix reaches it —
the "min-count subset to threshold" problem collapses to one sorted
cumsum (unlike general subset-sum).  The ½ test is kept integral as
``2·prefix ≥ total`` (no ceil division anywhere).  Distributed shape:
co-partition on the order key through one hash exchange; inside each
partition rows lexsort to (order, −cents) and EVERY order resolves
simultaneously with segment cumsums + ``reduceat`` folds (the
guarded_sequence_match machinery) — no per-order Python loop.

``embedding_sign_hamming_hist`` — the pairwise Hamming-distance
histogram of the 64-dim embeddings' sign-bit fingerprints (the
SimHash-geometry diagnostic: for random hyperplane sketches,
E[hamming] ∝ angular distance, so the spectrum's spread is the
corpus's angular diversity).  Fingerprints pack ``v > 0`` bits into
TWO uint32 halves — deliberately: a single 64-bit mask puts a float's
sign into the int64 SIGN bit, which both numpy and SQL BIGINT
arithmetic would have to two's-complement around; two nonnegative
halves make engine and oracle arithmetic overflow-free by
construction.  Distributed shape: fingerprints are computed
vectorized per batch (comparison + dot with a bit-weight vector);
the bounded fingerprint table (n×8 bytes) broadcasts via ``ray.put``
and each batch counts its rows' XOR-popcount against the full table
on the ``vec_id <`` half-matrix, reducing the bounded 0..64-bin
histogram through the map-side combine.  All-pairs is inherently
quadratic — this is the exact diagnostic over the bounded embedding
table; the corpus-scale near-dup path remains the LSH-bucketed
``embedding_near_dup``.

Reference anchors: relational + embedding families (SURVEY.md §2.4);
siblings: guarded_sequence_match (segment reduceat machinery),
simhash (text-side fingerprints), nn_distance_histogram (exact
pairwise geometry diagnostic), sq8_topk (integer embedding kernels).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

EMB_DIM = 64


# --------------------------------------------------------------------------
# half_revenue_item_count
# --------------------------------------------------------------------------


def q_half_revenue_item_count(sf_dir: str, n_parts: int | None = None):
    import ray

    def prep(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        cents = np.round(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "okey": pa.array(key, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_part(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        cents = group.column("cents").to_numpy().astype(np.int64)
        order = np.lexsort((-cents, okey))
        okey, cents = okey[order], cents[order]
        n = len(okey)
        seg_mask = np.empty(n, dtype=bool)
        seg_mask[0] = True
        np.not_equal(okey[1:], okey[:-1], out=seg_mask[1:])
        seg_start_idx = np.flatnonzero(seg_mask)
        seg_len = np.diff(np.append(seg_start_idx, n)).astype(np.int64)
        seg_start = np.repeat(seg_start_idx, seg_len)
        idx = np.arange(n, dtype=np.int64)
        rn = idx - seg_start + 1
        csum_all = np.cumsum(cents)
        base = np.repeat(np.r_[0, csum_all[seg_start_idx[1:] - 1]], seg_len)
        prefix = csum_all - base
        totals = np.repeat(np.add.reduceat(cents, seg_start_idx), seg_len)
        qual = 2 * prefix >= totals
        rn_or_big = np.where(qual, rn, np.int64(1) << 62)
        min_k = np.minimum.reduceat(rn_or_big, seg_start_idx)
        return pa.table({
            "o_orderkey": pa.array(okey[seg_start_idx], type=pa.int64()),
            "n_items": pa.array(seg_len, type=pa.int64()),
            "min_items_half": pa.array(min_k, type=pa.int64()),
        })

    return hash_exchange(ds, "okey", per_part, n_parts)


SQL_HALF_REVENUE_ITEM_COUNT = """
WITH li AS MATERIALIZED (
  SELECT l_orderkey,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS c
  FROM lineitem
), tot AS (
  SELECT l_orderkey, SUM(c) AS total, COUNT(*) AS n FROM li GROUP BY 1
), ranked AS (
  SELECT l_orderkey, c,
         ROW_NUMBER() OVER (PARTITION BY l_orderkey ORDER BY c DESC) AS rn,
         SUM(c) OVER (PARTITION BY l_orderkey ORDER BY c DESC
                      ROWS UNBOUNDED PRECEDING) AS csum
  FROM li
)
SELECT t.l_orderkey AS o_orderkey,
       CAST(t.n AS BIGINT) AS n_items,
       CAST(MIN(r.rn) AS BIGINT) AS min_items_half
FROM tot t JOIN ranked r
  ON r.l_orderkey = t.l_orderkey AND 2 * r.csum >= t.total
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# embedding_sign_hamming_hist
# --------------------------------------------------------------------------

_BIT32 = (np.uint64(1) << np.arange(32, dtype=np.uint64))


def _sign_halves(emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 64) float block -> two uint64 arrays of nonnegative 32-bit
    sign masks (bits 0..31 and 32..63 of `v > 0`)."""
    bits = emb > 0.0
    lo = (bits[:, :32].astype(np.uint64) * _BIT32).sum(axis=1)
    hi = (bits[:, 32:].astype(np.uint64) * _BIT32).sum(axis=1)
    return lo, hi


_POPCNT8 = np.array([bin(i).count("1") for i in range(256)],
                    dtype=np.int64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    return _POPCNT8[x.view(np.uint8).reshape(*x.shape, 8)].sum(axis=-1)


def q_embedding_sign_hamming_hist(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    path = f"{sf_dir}/embeddings.parquet"

    def fingerprints(batch: pa.Table) -> pa.Table:
        col = batch.column("embedding").combine_chunks()
        emb = col.flatten().to_numpy(zero_copy_only=False).reshape(
            -1, EMB_DIM)
        lo, hi = _sign_halves(emb)
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "lo": pa.array(lo.astype(np.int64)),
            "hi": pa.array(hi.astype(np.int64)),
        })

    fp = ray.data.read_parquet(
        path, columns=["vec_id", "embedding"]).map_batches(
        fingerprints, batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()  # bounded: n x 24 bytes
    all_id = fp["vec_id"].to_numpy().astype(np.int64)
    all_lo = fp["lo"].to_numpy().astype(np.int64).astype(np.uint64)
    all_hi = fp["hi"].to_numpy().astype(np.int64).astype(np.uint64)
    order = np.argsort(all_id, kind="stable")
    all_id, all_lo, all_hi = all_id[order], all_lo[order], all_hi[order]
    table_ref = ray.put((all_id, all_lo, all_hi))

    def count_pairs(batch: pa.Table) -> pa.Table:
        tid, tlo, thi = ray.get(table_ref)
        col = batch.column("embedding").combine_chunks()
        emb = col.flatten().to_numpy(zero_copy_only=False).reshape(
            -1, EMB_DIM)
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        lo, hi = _sign_halves(emb)
        hist = np.zeros(EMB_DIM + 1, dtype=np.int64)
        # rows pair with strictly-larger vec_ids (tid is sorted)
        starts = np.searchsorted(tid, vid, side="right")
        d = (_popcount64(lo[:, None] ^ tlo[None, :])
             + _popcount64(hi[:, None] ^ thi[None, :]))
        mask = np.arange(len(tid))[None, :] >= starts[:, None]
        np.add.at(hist, d[mask], 1)
        return pa.table({
            "hamming_dist": pa.array(np.arange(EMB_DIM + 1,
                                               dtype=np.int64)),
            "n_pairs": pa.array(hist, type=pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(path, columns=["vec_id", "embedding"])
        .map_batches(count_pairs, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["hamming_dist"], [("sum", "n_pairs", "n_pairs")],
    )
    def drop_empty(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch.column("n_pairs"), 0))

    return hist.map_batches(drop_empty, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_EMBEDDING_SIGN_HAMMING_HIST = f"""
WITH masks AS MATERIALIZED (
  SELECT vec_id,
         CAST(SUM(CASE WHEN embedding[r.range] > 0
                       THEN (1::BIGINT << (r.range - 1)) ELSE 0 END)
              AS BIGINT) AS lo,
         CAST(SUM(CASE WHEN embedding[r.range + 32] > 0
                       THEN (1::BIGINT << (r.range - 1)) ELSE 0 END)
              AS BIGINT) AS hi
  FROM embeddings, range(1, 33) r
  GROUP BY 1
)
SELECT CAST(bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi))
            AS BIGINT) AS hamming_dist,
       CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM masks a JOIN masks b ON a.vec_id < b.vec_id
GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext164():
    return {
        "half_revenue_item_count": q_half_revenue_item_count,
        "embedding_sign_hamming_hist": q_embedding_sign_hamming_hist,
    }


def build_oracles_ext164():
    return {
        "half_revenue_item_count": SQL_HALF_REVENUE_ITEM_COUNT,
        "embedding_sign_hamming_hist": SQL_EMBEDDING_SIGN_HAMMING_HIST,
    }
