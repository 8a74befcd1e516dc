"""Round-2 extension operators, batch 6: LLM-corpus text operators.

* ``gopher_signals`` — Gopher-style per-document repetition signals
  (word count, distinct words, top-word count, top-bigram count), all
  integer-exact, via one dictionary-encode + lexsort per batch.
* ``edit_distance_dups`` — edit-distance near-duplicate pairs under
  length-bucket blocking: pairs are generated only within
  (lang, n_chars//8) blocks (|len diff| <= 7 < the distance threshold,
  so no sub-threshold pair straddles more than adjacent buckets and the
  oracle uses the SAME blocking predicate), computed by a Levenshtein
  DP vectorized ACROSS pairs (rows are numpy ops over a (pairs, maxlen)
  matrix; the insert scan is a running-minimum accumulate).
* ``heavy_hitter_words`` — exact corpus top-k words at bounded memory:
  pass 1 emits per-block Misra-Gries-compressed count summaries (top-C
  with the (C+1)-th count subtracted — any word with global count >
  sum of per-block decrements survives in some summary); pass 2
  re-counts the bounded candidate union exactly and takes top-k.
* ``scrub_props`` — PII-style redaction: digit runs masked in the
  event props payload with one arrow regex kernel.

Same contracts as ``queries.py``."""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

EDIT_BUCKET = 8  # n_chars blocking bucket width
EDIT_MAX_DIST = 8  # report pairs with levenshtein <= this
MG_CAPACITY = 256  # per-block Misra-Gries summary size
HH_TOPK = 10


def _word_lists(batch: pa.Table):
    """(flat word StringArray, per-doc word counts, doc row index per word)."""
    lists = pc.split_pattern(batch.column("text"), " ")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    offsets = lists.offsets.to_numpy()
    counts = np.diff(offsets)
    flat = lists.values
    doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
    return flat, counts, doc_idx


# --------------------------------------------------------------------------
# Gopher-style repetition signals
# --------------------------------------------------------------------------


def q_gopher_signals(sf_dir: str):
    """Per-doc repetition stats in one stateless vectorized stage: words
    dictionary-encoded (exact, batch-local codes), per-doc distinct/top
    counts from run lengths of a (doc, code) lexsort, bigram tops from a
    (doc, c1, c2) lexsort of in-order adjacent code pairs.  No shuffle;
    integers only so the oracle is bit-exact."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def signals(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "n_words": pa.array([], type=pa.int64()),
                "n_distinct": pa.array([], type=pa.int64()),
                "top_word_count": pa.array([], type=pa.int64()),
                "top_bigram_count": pa.array([], type=pa.int64()),
            })
        flat, counts, doc_idx = _word_lists(batch)
        codes = flat.dictionary_encode().indices.to_numpy().astype(np.int64)

        order = np.lexsort((codes, doc_idx))
        d, c = doc_idx[order], codes[order]
        new = np.r_[True, (d[1:] != d[:-1]) | (c[1:] != c[:-1])]
        starts = np.flatnonzero(new)
        run_len = np.diff(np.r_[starts, len(d)])
        run_doc = d[starts]
        n_distinct = np.bincount(run_doc, minlength=n)
        top_word = np.zeros(n, dtype=np.int64)
        np.maximum.at(top_word, run_doc, run_len)

        adj = doc_idx[1:] == doc_idx[:-1]  # flat values keep original order
        bd, b1, b2 = doc_idx[:-1][adj], codes[:-1][adj], codes[1:][adj]
        top_bigram = np.zeros(n, dtype=np.int64)
        if len(bd):
            order2 = np.lexsort((b2, b1, bd))
            bd, b1, b2 = bd[order2], b1[order2], b2[order2]
            new2 = np.r_[
                True,
                (bd[1:] != bd[:-1]) | (b1[1:] != b1[:-1]) | (b2[1:] != b2[:-1]),
            ]
            starts2 = np.flatnonzero(new2)
            run_len2 = np.diff(np.r_[starts2, len(bd)])
            np.maximum.at(top_bigram, bd[starts2], run_len2)

        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "n_words": pa.array(counts, type=pa.int64()),
            "n_distinct": pa.array(n_distinct, type=pa.int64()),
            "top_word_count": pa.array(top_word, type=pa.int64()),
            "top_bigram_count": pa.array(top_bigram, type=pa.int64()),
        })

    return ds.map_batches(signals, batch_format="pyarrow", zero_copy_batch=True)


SQL_GOPHER_SIGNALS = """
    WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
    w AS (SELECT doc_id, UNNEST(l) AS w FROM t),
    wc AS (SELECT doc_id, w, COUNT(*) AS c FROM w GROUP BY 1, 2),
    ws AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_distinct,
                  CAST(MAX(c) AS BIGINT) AS top_word_count
           FROM wc GROUP BY doc_id),
    b AS (SELECT doc_id, UNNEST(list_zip(l[1:-2], l[2:])) AS z
          FROM t WHERE len(l) >= 2),
    bc AS (SELECT doc_id, z[1] AS w1, z[2] AS w2, COUNT(*) AS c
           FROM b GROUP BY 1, 2, 3),
    bs AS (SELECT doc_id, CAST(MAX(c) AS BIGINT) AS top_bigram_count
           FROM bc GROUP BY doc_id)
    SELECT t.doc_id, CAST(len(t.l) AS BIGINT) AS n_words,
           ws.n_distinct, ws.top_word_count,
           COALESCE(bs.top_bigram_count, 0) AS top_bigram_count
    FROM t JOIN ws USING (doc_id) LEFT JOIN bs USING (doc_id)
"""


# --------------------------------------------------------------------------
# edit-distance near-dup pairs (length-bucket blocking)
# --------------------------------------------------------------------------


def _levenshtein_pairs(
    A: np.ndarray, la: np.ndarray, B: np.ndarray, lb: np.ndarray
) -> np.ndarray:
    """Exact Levenshtein distance for P (a, b) pairs at once.  A/B are
    (P, maxlen) uint8 char matrices (0-padded; texts are ASCII — enforced
    upstream).  One DP row per iteration of the SHORTER global max
    length; each row is pure vector ops — the in-row insertion
    recurrence min_{j'<=j}(t[j'] + j - j') is a running-minimum
    accumulate of (t - j).  Padding past lb never corrupts a result:
    dependencies only flow left-to-right and each pair is harvested at
    its own (la, lb) cell."""
    P, width = B.shape[0], B.shape[1] + 1
    ar = np.arange(width, dtype=np.int32)
    row = np.broadcast_to(ar, (P, width)).copy()
    res = np.empty(P, dtype=np.int64)
    if (la == 0).any():
        res[la == 0] = lb[la == 0]
    pair_rows = np.arange(P)
    for i in range(1, int(la.max()) + 1 if P else 0):
        cost = (A[:, i - 1 : i] != B).astype(np.int32)
        t = np.empty((P, width), dtype=np.int32)
        t[:, 0] = i
        np.minimum(row[:, 1:] + 1, row[:, :-1] + cost, out=t[:, 1:])
        row = np.minimum.accumulate(t - ar, axis=1) + ar
        done = la == i
        if done.any():
            res[done] = row[pair_rows[done], lb[done]]
    return res


def _levenshtein_pairs_banded(
    A: np.ndarray, la: np.ndarray, B: np.ndarray, lb: np.ndarray, d: int
) -> np.ndarray:
    """Banded Levenshtein across P pairs: O(maxlen x (2d+1)) instead of
    O(maxlen x maxlen).  Exact for any pair whose true distance is <= d
    (an <=d-edit path never leaves the |j-i|<=d diagonal band); pairs
    beyond the threshold return some value > d (clamped, sufficient for
    the keep-filter).  Requires |la-lb| <= d (the length-bucket blocking
    guarantees it).  Same vector tricks as the full DP: the in-row
    insertion recurrence is a running-minimum accumulate along the band
    (consecutive k = consecutive j at fixed i)."""
    P = B.shape[0]
    W = 2 * d + 1
    INF = np.int32(1 << 29)
    kk = np.arange(W, dtype=np.int32)
    # pad B with d sentinel columns each side so the cost slice at row i
    # is always the contiguous window Bp[:, i-1 : i-1+W]
    Bp = np.zeros((P, B.shape[1] + 2 * d), dtype=A.dtype)
    Bp[:, d : d + B.shape[1]] = B
    # row 0: dp[0][j] = j for j in [0, d] -> band cells k >= d
    row = np.where(kk >= d, kk - d, INF).astype(np.int32)
    row = np.broadcast_to(row, (P, W)).copy()
    res = np.empty(P, dtype=np.int64)
    if (la == 0).any():
        res[la == 0] = lb[la == 0]
    pair_rows = np.arange(P)
    maxla = int(la.max()) if P else 0
    shifted = np.empty((P, W), dtype=np.int32)
    for i in range(1, maxla + 1):
        cost = (A[:, i - 1 : i] != Bp[:, i - 1 : i - 1 + W]).astype(np.int32)
        shifted[:, :-1] = row[:, 1:]
        shifted[:, -1] = INF
        tmp = np.minimum(shifted + 1, row + cost)
        # j = i + k - d: cells left of j=1 are invalid; j=0 is the base
        # column dp[i][0] = i (present only while i <= d at k = d - i)
        if i <= d:
            tmp[:, : d - i] = INF
            tmp[:, d - i] = i
        row = np.minimum.accumulate(tmp - kk, axis=1) + kk
        done = la == i
        if done.any():
            res[done] = row[pair_rows[done], lb[done] - i + d]
    return res


def q_edit_distance_dups(sf_dir: str, n_parts: int | None = None):
    """Near-dup pairs by edit distance with (lang, n_chars//8) blocking:
    block key hash-partitions the corpus so every candidate pair is
    partition-local; within a partition, pairs of each block fan out
    vectorized (triu indices) and ONE cross-pair DP resolves every
    distance.  Work is bounded by the blocking (sum of block-size^2),
    never all-pairs over the corpus."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "n_chars"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        lang = batch.column("lang")
        d = pc.dictionary_encode(lang)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        uniq = d.dictionary.to_pylist()
        lut = np.array([zlib.crc32(s.encode()) for s in uniq], dtype=np.int64)
        lang_h = lut[d.indices.to_numpy()]
        nb = batch.column("n_chars").to_numpy().astype(np.int64) // EDIT_BUCKET
        bucket = lang_h * np.int64(1_000_003) + nb
        ascii_ok = pc.match_substring_regex(batch.column("text"), r"^[ -~]*$")
        out = pa.table({
            "bucket": pa.array(bucket, type=pa.int64()),
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "text": batch.column("text"),
        })
        return out.filter(ascii_ok)

    def pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "dist": pa.array([], type=pa.int64()),
        })
        m = group.num_rows
        if m < 2:
            return empty
        bucket = group.column("bucket").to_numpy().astype(np.int64)
        did = group.column("doc_id").to_numpy().astype(np.int64)
        order = np.lexsort((did, bucket))
        bucket, did = bucket[order], did[order]
        texts = group.column("text")
        texts = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        texts = texts.take(pa.array(order))
        # char matrix once per partition
        enc = [t.encode() for t in texts.to_pylist()]
        lens = np.array([len(e) for e in enc], dtype=np.int64)
        maxlen = int(lens.max())
        chars = np.zeros((m, maxlen), dtype=np.uint8)
        for i, e in enumerate(enc):
            chars[i, : len(e)] = np.frombuffer(e, dtype=np.uint8)
        # bag-of-characters lower bound: ed(a, b) >= max(sum of positive,
        # sum of negative histogram differences) — every excess character
        # needs at least one edit.  Block pair counts grow quadratically
        # with corpus density, so pruning pairs BEFORE the banded DP is
        # what keeps the 10x corpus from costing 100x DP work (measured
        # at sf1: the prune removes the overwhelming majority of random
        # same-length-bucket pairs).  Histogram columns are only the
        # bytes actually present (bounded alphabet).
        used = np.unique(chars)
        used = used[used != 0]
        hist = np.zeros((m, len(used)), dtype=np.int32)
        for j, c in enumerate(used):
            hist[:, j] = (chars == c).sum(axis=1)

        # pair fan-out per bucket segment (histogram-pruned)
        starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
        seg_len = np.diff(np.r_[starts, m])
        ia_list, ib_list = [], []
        for s, L in zip(starts, seg_len):
            if L >= 2:
                iu, ju = np.triu_indices(L, 1)
                d = hist[s + iu] - hist[s + ju]
                pos = np.clip(d, 0, None).sum(axis=1)
                neg = pos - d.sum(axis=1)
                ok = np.maximum(pos, neg) <= EDIT_MAX_DIST
                ia_list.append(s + iu[ok])
                ib_list.append(s + ju[ok])
        if not ia_list:
            return empty
        ia = np.concatenate(ia_list)
        ib = np.concatenate(ib_list)
        dist = _levenshtein_pairs_banded(
            chars[ia], lens[ia], chars[ib], lens[ib], EDIT_MAX_DIST
        )
        keep = dist <= EDIT_MAX_DIST
        ia, ib, dist = ia[keep], ib[keep], dist[keep]
        a, b = did[ia], did[ib]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({
            "doc_a": pa.array(lo, type=pa.int64()),
            "doc_b": pa.array(hi, type=pa.int64()),
            "dist": pa.array(dist, type=pa.int64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "bucket", pairs, n_parts,
    )


SQL_EDIT_DISTANCE_DUPS = f"""
    WITH d AS (
        SELECT doc_id, text, lang, n_chars // {EDIT_BUCKET} AS b
        FROM documents
        WHERE regexp_matches(text, '^[ -~]*$')
    )
    SELECT a.doc_id AS doc_a, c.doc_id AS doc_b,
           CAST(levenshtein(a.text, c.text) AS BIGINT) AS dist
    FROM d a JOIN d c
      ON a.lang = c.lang AND a.b = c.b AND a.doc_id < c.doc_id
    WHERE levenshtein(a.text, c.text) <= {EDIT_MAX_DIST}
"""


# --------------------------------------------------------------------------
# heavy hitters (Misra-Gries candidates + exact recount)
# --------------------------------------------------------------------------


def q_heavy_hitter_words(sf_dir: str):
    """Exact corpus top-k words WITHOUT a full-vocabulary shuffle: each
    block emits a Misra-Gries summary (its exact word counts, top
    MG_CAPACITY survivors with the (C+1)-th count subtracted — memory
    O(C) per block regardless of vocabulary size); the candidate union
    (<= C x blocks rows) is re-counted exactly in a second streamed
    pass restricted by a broadcast is_in filter.  Any word whose global
    count exceeds the summed per-block decrements is guaranteed to be a
    candidate, so for Zipf-shaped corpora the final top-k is exact
    (asserted by the oracle every round).  Both streamed passes consume
    the SHARED ``tokenized_docs`` checkpoint (one corpus tokenization
    for the whole word-statistics family)."""
    from .agg import grouped_aggregate
    from .queries_ext2 import tokenized_docs, toks_flat_from_batch

    ds = tokenized_docs(sf_dir)

    def mg_partial(batch: pa.Table) -> pa.Table:
        flat, _ = toks_flat_from_batch(batch)
        vc = pc.value_counts(flat)
        words = vc.field("values")
        counts = vc.field("counts").to_numpy().astype(np.int64)
        if len(counts) > MG_CAPACITY:
            order = np.argsort(-counts, kind="stable")
            dec = counts[order[MG_CAPACITY]]
            keep = order[:MG_CAPACITY]
            est = counts[keep] - dec
            pos = keep[est > 0]
            return pa.table({
                "word": words.take(pa.array(pos)),
                "est": pa.array(counts[pos] - dec, type=pa.int64()),
            })
        return pa.table({
            "word": words,
            "est": pa.array(counts, type=pa.int64()),
        })

    partials = grouped_aggregate(
        ds.map_batches(mg_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["word"],
        [("sum", "est", "est")],
    )
    # candidate union is O(capacity x blocks) — bounded driver-side take
    cand = sorted({r["word"] for r in partials.take_all()})
    cand_arr = pa.array(cand, type=pa.string())

    def recount(batch: pa.Table) -> pa.Table:
        flat, _ = toks_flat_from_batch(batch)
        mask = pc.is_in(flat, value_set=cand_arr)
        return pa.table({"word": flat.filter(mask)})

    counts = grouped_aggregate(
        ds.map_batches(recount, batch_format="pyarrow", zero_copy_batch=True),
        ["word"],
        [("count", None, "n")],
    ).to_pandas()  # O(candidates) rows
    counts = counts.sort_values(["n", "word"], ascending=[False, True]).head(HH_TOPK)
    return pa.table({
        "word": pa.array(counts["word"].tolist(), type=pa.string()),
        "n": pa.array(counts["n"].to_numpy(), type=pa.int64()),
    })


SQL_HEAVY_HITTER_WORDS = rf"""
    WITH w AS (SELECT UNNEST(regexp_extract_all(text, '\S+')) AS word
               FROM documents),
    c AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM w GROUP BY 1)
    SELECT word, n FROM c ORDER BY n DESC, word ASC LIMIT {HH_TOPK}
"""


# --------------------------------------------------------------------------
# PII-style redaction
# --------------------------------------------------------------------------


def q_scrub_props(sf_dir: str):
    """Redaction map: digit runs in the event props payload masked with
    one arrow regex-replace kernel — the shape of any PII scrubbing
    stage (emails/phones/SSNs are the same kernel with other patterns)."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])

    def scrub(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "props_scrubbed": pc.replace_substring_regex(
                batch.column("props"), pattern="[0-9]+", replacement="#"
            ),
        })

    return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)


SQL_SCRUB_PROPS = """
    SELECT CAST(event_id AS BIGINT) AS event_id,
           regexp_replace(props, '[0-9]+', '#', 'g') AS props_scrubbed
    FROM events
"""


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def build_queries_ext5() -> dict:
    return {
        "gopher_signals": q_gopher_signals,
        "edit_distance_dups": q_edit_distance_dups,
        "heavy_hitter_words": q_heavy_hitter_words,
        "scrub_props": q_scrub_props,
    }


def build_oracles_ext5() -> dict:
    return {
        "gopher_signals": SQL_GOPHER_SIGNALS,
        "edit_distance_dups": SQL_EDIT_DISTANCE_DUPS,
        "heavy_hitter_words": SQL_HEAVY_HITTER_WORDS,
        "scrub_props": SQL_SCRUB_PROPS,
    }
