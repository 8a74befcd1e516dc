"""Round-3 extension operators, batch 36: exact set-similarity join (PPJoin).

``jaccard_join_exact`` — the DETERMINISTIC-complete exact similarity
self-join: every document pair with word-trigram Jaccard >= 0.5, found
by prefix filtering (Chaudhuri/Xiao PPJoin family) instead of LSH.  The
prefix-filter theorem: with shingles ordered by a fixed global total
order (here rarest-first: document frequency ASC, shingle ASC), two
sets with J >= tau MUST share at least one shingle among each set's
first ``|S| - ceil(tau*|S|) + 1`` shingles — so joining prefixes only
is complete BY CONSTRUCTION, where the banded-LSH path
(``minhash_near_dup``) is complete only probabilistically.  Both
pipelines share one DuckDB oracle (the exhaustive inverted-index join),
so the two independent algorithms are proven to agree value-exactly.

Distributed shape (tau never changes the exchange structure):

  shingle rows (doc_id, g)              stateless explode, per-doc dedup
  -> df count + attach                  exchange 1: hash(g) co-partition —
                                        a shingle's rows all land together,
                                        so its GLOBAL df is computed and
                                        attached in the same pass
  -> per-doc prefix select              exchange 2: hash(doc_id); lexsort +
                                        run-rank keeps rank < prefix_len
  -> candidate pairs                    exchange 3: hash(g); per-bucket
                                        triu expansion + size filter
                                        (min >= tau*max prunes free)
  -> pair dedup + exact verify          exchange 4: high-cardinality pair
                                        hash; then the broadcast-corpus
                                        verify shared with minhash
                                        (queries.verify_candidate_pairs)

Candidate volume is bounded by prefix-shingle bucket sizes; rarest-first
ordering makes those buckets the rarest shingles in each document.

SCALE GATE (``JACCARD_EXACT_MAX_DOCS``): deterministic-complete PPJoin
evaluates ~sum(bucket^2) candidate pairs over the prefix-shingle buckets.
When the trigram vocabulary V is bounded (this corpus generator saturates
at V ~= 27k distinct trigrams) bucket occupancy grows linearly with the
corpus — occ ~= N * p_bar / V with p_bar ~= 27 prefix tokens/doc — so the
candidate count grows as N^2 * p_bar^2 / V: measured 100.9x wall at 10x
rows (294 s at the sf1 sweep; ~35x after the positional filter).  Past
the gate (occupancy ~> 20, i.e. N > 20k corpus docs) the exact join
DELEGATES to ``minhash_near_dup`` — value-equal on the same exhaustive
ground-truth oracle, and sub-linear (3.7x at 10x rows) because banded
LSH bucket sizes do not scale with vocabulary saturation.  Pass
``force_exact=True`` to override (the completeness pytest does).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from ..stages.util import group_map
from .agg import hash_exchange, n_partitions

log = logging.getLogger(__name__)

TAU = 0.5

# corpus-size gate for the deterministic-complete exact join: above this
# many corpus docs (base + planted dups) the vocabulary-saturated prefix
# buckets make candidate volume quadratic (see module docstring) and the
# value-equal LSH path is the scale answer.
JACCARD_EXACT_MAX_DOCS = 20_000


def _prefix_len(sizes: np.ndarray, tau: float) -> np.ndarray:
    return sizes - np.ceil(tau * sizes).astype(np.int64) + 1


def q_jaccard_join_exact(
    sf_dir: str,
    tau: float = TAU,
    n_parts: int | None = None,
    force_exact: bool = False,
):
    from .agg import _key_hash, grouped_aggregate
    from .dedup import shingle_strs

    from .queries import DUP_EVERY, _corpus_with_planted_dups

    # ---- scale gate (see module docstring): past the vocabulary-derived
    # bound the exact PPJoin's candidate volume is quadratic in the corpus;
    # delegate to the value-equal banded-LSH pipeline (same exhaustive
    # oracle, sub-linear scaling).  Corpus size comes from parquet metadata
    # plus the deterministic planting ratio — driver-side, no data read.
    import pyarrow.parquet as pq

    n_base = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    n_corpus = n_base + n_base // DUP_EVERY
    if n_corpus > JACCARD_EXACT_MAX_DOCS and not force_exact:
        log.warning(
            "jaccard_join_exact: corpus %d docs exceeds the exact-join gate "
            "(%d; candidate volume is quadratic past vocabulary saturation) "
            "— delegating to the value-equal minhash_near_dup LSH path. "
            "Pass force_exact=True to override.",
            n_corpus, JACCARD_EXACT_MAX_DOCS,
        )
        from .queries import q_minhash_near_dup

        return q_minhash_near_dup(sf_dir, threshold=tau, n_parts=n_parts)

    P = n_partitions(n_parts)

    def explode(batch: pa.Table) -> pa.Table:
        # candidate generation runs on 64-bit hashed shingle keys (polars'
        # fixed-seed hash, the repo-wide string-key convention) — integer
        # sorts/searches throughout instead of object-string compares.
        # Verification recomputes EXACT string sets, so a 2^-64 collision
        # can only perturb candidate generation; the brute-force
        # completeness pytest and the exhaustive oracle guard that margin.
        import polars as pl

        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_doc, out_g = [], []
        for i, t in zip(ids, texts):
            gs = shingle_strs(t or "")
            out_doc.extend([int(i)] * len(gs))
            out_g.extend(gs)
        g64 = (
            pl.from_arrow(pa.array(out_g, type=pa.string()))
            .hash(seed=0)
            .to_numpy()
            .astype(np.uint64)
            .view(np.int64)
            if out_g else np.empty(0, np.int64)
        )
        return pa.table({
            "doc_id": pa.array(out_doc, type=pa.int64()),
            "g": pa.array(g64, type=pa.int64()),
        })

    shingles = _corpus_with_planted_dups(sf_dir).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )

    # exchange 1: hash(g) co-partition — every row of a shingle lands in one
    # partition, so its GLOBAL document frequency is computable locally and
    # attaches in the same pass (no separate df aggregate + re-join barrier)
    def key_g(batch: pa.Table) -> pa.Table:
        part = (_key_hash(batch, ["g"]) % np.uint64(P)).astype(np.int64)
        return batch.append_column("part", pa.array(part, type=pa.int64()))

    def attach_df(group: pa.Table) -> pa.Table:
        g = group.column("g").to_numpy().astype(np.int64)
        doc = group.column("doc_id").to_numpy().astype(np.int64)
        if len(g) == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "g": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
            })
        order = np.argsort(g, kind="stable")
        gs = g[order]
        starts = np.concatenate([[0], np.nonzero(np.diff(gs) != 0)[0] + 1])
        runs = np.diff(np.concatenate([starts, [len(gs)]]))
        df_sorted = np.repeat(runs, runs)
        df = np.empty(len(g), np.int64)
        df[order] = df_sorted
        return pa.table({
            "doc_id": pa.array(doc, type=pa.int64()),
            "g": pa.array(g, type=pa.int64()),
            "df": pa.array(df, type=pa.int64()),
        })

    with_df = group_map(
        shingles.map_batches(key_g, batch_format="pyarrow", zero_copy_batch=True),
        "part", lambda gr: attach_df(gr.drop_columns(["part"])),
    )

    # exchange 3: per-doc prefix selection (rarest-first order)
    def prefix_rows(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy().astype(np.int64)
        g = group.column("g").to_numpy().astype(np.int64)
        df = group.column("df").to_numpy().astype(np.int64)
        if len(ids) == 0:
            return pa.table({
                "g": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.int64()),
            })
        order = np.lexsort((g, df, ids))
        ids, g = ids[order], g[order]
        starts = np.concatenate([[0], np.nonzero(np.diff(ids) != 0)[0] + 1])
        sizes = np.diff(np.concatenate([starts, [len(ids)]]))
        run_id = np.repeat(np.arange(len(starts)), sizes)
        rank = np.arange(len(ids)) - starts[run_id]
        s = sizes[run_id]
        keep = rank < _prefix_len(s, tau)
        return pa.table({
            "g": pa.array(g[keep], type=pa.int64()),
            "doc_id": pa.array(ids[keep], type=pa.int64()),
            "s": pa.array(s[keep], type=pa.int64()),
            # rank of the token in the doc's rarest-first order — feeds
            # the PPJoin positional filter in the candidate stage
            "p": pa.array(rank[keep], type=pa.int64()),
        })

    prefixes = hash_exchange(with_df, "doc_id", prefix_rows, P)

    # exchange 4: candidate pairs from shared prefix shingles
    def key_g2(batch: pa.Table) -> pa.Table:
        part = (_key_hash(batch, ["g"]) % np.uint64(P)).astype(np.int64)
        return batch.append_column("part", pa.array(part, type=pa.int64()))

    def bucket_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
        })
        n = group.num_rows
        if n < 2:
            return empty
        g = group.column("g").to_numpy().astype(np.int64)
        ids = group.column("doc_id").to_numpy().astype(np.int64)
        s = group.column("s").to_numpy().astype(np.int64)
        p = group.column("p").to_numpy().astype(np.int64)
        order = np.lexsort((ids, g))
        g, ids, s, p = g[order], ids[order], s[order], p[order]
        starts = np.concatenate([[0], np.nonzero(g[1:] != g[:-1])[0] + 1])
        lens = np.diff(np.concatenate([starts, [n]]))
        pa_list, pb_list = [], []
        # per-bucket all-pairs: bounded by prefix-shingle bucket sizes (the
        # rarest shingles of each doc); runs with L >= 2 are the candidate-
        # generating buckets, expanded vectorized via triu then pruned by
        # the size + POSITIONAL filters before any pair leaves the task
        for st, ln in zip(starts, lens):
            if ln < 2:
                continue
            ii, jj = np.triu_indices(ln, k=1)
            sa, sb = s[st + ii], s[st + jj]
            # size filter: J >= tau requires min >= tau * max
            keep = np.minimum(sa, sb) >= tau * np.maximum(sa, sb)
            # PPJoin positional filter: sharing this token at rarest-first
            # positions (pa_, pb_) caps the overlap at
            # 1 + min(sa-pa_-1, sb-pb_-1); J >= tau needs overlap >=
            # ceil(tau/(1+tau)*(sa+sb)).  Complete: for any true pair the
            # FIRST shared prefix token satisfies the bound (its suffixes
            # still hold the full remaining overlap), so at least one
            # generating instance always survives; later instances of the
            # same pair may prune — the pair dedup makes that harmless.
            # The 1e-9 slack makes float ceil under-prune only (safe).
            pa_, pb_ = p[st + ii], p[st + jj]
            ub = 1 + np.minimum(sa - pa_ - 1, sb - pb_ - 1)
            need = np.ceil(tau / (1.0 + tau) * (sa + sb) - 1e-9)
            keep &= ub >= need
            if keep.any():
                pa_list.append(ids[st + ii[keep]])
                pb_list.append(ids[st + jj[keep]])
        if not pa_list:
            return empty
        return pa.table({
            "doc_a": pa.array(np.concatenate(pa_list), type=pa.int64()),
            "doc_b": pa.array(np.concatenate(pb_list), type=pa.int64()),
        })

    cands = group_map(
        prefixes.map_batches(key_g2, batch_format="pyarrow", zero_copy_batch=True),
        "part", lambda gr: bucket_pairs(gr.drop_columns(["part"])),
    )

    # global pair dedup, merged into a few blocks so the broadcast verify pays the
    # corpus deserialize once per task, not once per micro-block
    cands = grouped_aggregate(
        cands, ["doc_a", "doc_b"], [("count", None, "_n")],
    ).select_columns(["doc_a", "doc_b"]).repartition(4)

    # exact verify against the broadcast (doc_id -> text) map, the stage
    # shared with minhash
    from .queries import verify_candidate_pairs

    return verify_candidate_pairs(cands, sf_dir, tau, pre_deduped=True)


def build_queries_ext36() -> dict:
    return {"jaccard_join_exact": q_jaccard_join_exact}


def build_oracles_ext36() -> dict:
    # the exhaustive inverted-index ground truth is shared with the LSH
    # pipeline: two independent algorithms, one oracle
    from .queries import _sql_minhash_near_dup

    return {"jaccard_join_exact": _sql_minhash_near_dup()}
