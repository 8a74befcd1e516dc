"""Round-2 extension operators, batch 3: training-data hygiene and
window/rank analytics.

* ``contamination_check`` — benchmark-contamination flagging (8-gram
  overlap vs a broadcast benchmark set), the eval-leakage scan every
  LLM training pipeline needs.
* ``time_window_avg`` — time-RANGE windowed aggregate (trailing 1 h sum /
  count / avg per user), fully vectorized multi-segment searchsorted.
* ``priority_rank`` — per-group RANK / DENSE_RANK with ties.
* ``ntile_values`` — global NTILE(10) via an exact distributed rank
  (histogram range partitioner + per-partition prefix offsets).
* ``tfidf_top_terms`` — two-pass TF-IDF: distributed document-frequency
  aggregate, broadcast vocabulary, per-doc top-k terms.
* ``user_hour_gapfill`` — per-user hourly resample with zero-filled gaps
  (time-series densification).
* ``big_spenders`` — distributed EXISTS semi join (co-partitioned
  presence flags carrying the probe side's payload columns).
* ``event_path_trigrams`` — ordered event-sequence trigram mining
  (LEAD×2 semantics) with map-side combine + partial top-k.

Same contracts as ``queries.py``: callables take ``sf_dir`` and return a
Dataset; oracles only where the Ray value and DuckDB value are
bit-identical by construction (integer arithmetic, identical IEEE
expression order, binary string collation on both sides).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import hash_exchange, hash_part, n_partitions

HOUR_US = 3_600_000_000
CONTAM_NGRAM = 8  # benchmark-overlap shingle width (tokens)
CONTAM_BENCH_MOD = 97  # doc_id % MOD == 0 -> "benchmark" doc (~1%)
TFIDF_DF_MIN = 5  # vocabulary floor: term must appear in >= 5 docs
TFIDF_K = 3  # top terms kept per document
NTILE_N = 10
NTILE_BUCKET_CENTS = 100  # histogram bucket width for the range partitioner
BIG_SPENDER_MIN = 400_000.0  # o_totalprice threshold for the semi join
PATH_TOP_K = 20


# --------------------------------------------------------------------------
# shared: whitespace tokens with regexp_extract_all('\S+') parity
# --------------------------------------------------------------------------


def tokens_flat(texts) -> tuple[pa.Array, np.ndarray]:
    """(flat token StringArray, per-doc int64 offsets) for a batch of
    texts, matching DuckDB ``regexp_extract_all(text, '\\S+')`` exactly.

    One arrow split kernel for the whole batch; the only numpy work is an
    offset rebuild that drops the empty edge tokens utf8_split_whitespace
    emits for leading/trailing whitespace (cumsum over a keep mask —
    robust for zero-token docs, unlike reduceat)."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    sw = pc.utf8_split_whitespace(arr)
    off = sw.offsets.to_numpy().astype(np.int64)
    vals = sw.values
    keep = pc.not_equal(vals, "")
    keep_np = keep.to_numpy(zero_copy_only=False).astype(np.int64)
    cum = np.concatenate([[0], np.cumsum(keep_np)])
    new_off = cum[off]  # cumulative kept tokens at each doc boundary
    flat = vals.filter(keep)
    return flat, new_off


_TOKENIZED_CACHE: dict[str, object] = {}


def tokenized_docs(sf_dir: str):
    """Documents with their ``\\S+`` token LIST — ONE tokenization pass,
    checkpointed as fingerprinted partitioned parquet (``queries._checkpoint``)
    and shared by the BM25/TF-IDF family.
    Each consumer streams (doc_id, toks) back and recovers the flat-token
    + offsets view zero-copy via ``toks_flat_from_batch`` instead of
    re-tokenizing the corpus once per pass."""
    ds = _TOKENIZED_CACHE.get(sf_dir)
    if ds is None:
        from .queries import _checkpoint

        def write(path: str) -> None:
            import ray

            def tok(batch: pa.Table) -> pa.Table:
                flat, off = tokens_flat(batch.column("text"))
                return pa.table({
                    "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                    "toks": pa.ListArray.from_arrays(
                        pa.array(off, type=pa.int32()), flat),
                })

            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            ).map_batches(
                tok, batch_format="pyarrow", zero_copy_batch=True
            ).write_parquet(path)

        ckpt = _checkpoint(sf_dir, "tokenized", ["documents.parquet"], write)
        import ray

        ds = ray.data.read_parquet(ckpt)
        _TOKENIZED_CACHE[sf_dir] = ds
    return ds


def toks_flat_from_batch(batch: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """Recover the ``tokens_flat`` view (flat token array, per-doc int64
    offsets starting at 0) from a ``tokenized_docs`` batch, zero-copy."""
    arr = batch.column("toks")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    off = arr.offsets.to_numpy().astype(np.int64)
    flat = arr.values.slice(off[0], off[-1] - off[0]) if len(off) else arr.values
    return flat, off - (off[0] if len(off) else 0)


def _doc_ngrams(texts, k: int) -> tuple[pa.Array, np.ndarray]:
    """(flat k-gram StringArray joined with ' ', per-doc gram counts) —
    k shifted takes over the flat token array + ONE elementwise join
    kernel (the span-synthesis idiom; no per-row Python)."""
    flat, off = tokens_flat(texts)
    return ngrams_from_flat(flat, off, k)


def ngrams_from_flat(flat: pa.Array, off: np.ndarray,
                     k: int) -> tuple[pa.Array, np.ndarray]:
    """``_doc_ngrams`` over an already-tokenized (flat, offsets) view —
    the entry point for ``tokenized_docs`` checkpoint consumers."""
    n_tok = np.diff(off)
    n_grams = np.maximum(n_tok - k + 1, 0)
    total = int(n_grams.sum())
    if total == 0:
        return pa.array([], type=pa.string()), n_grams
    seg = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_grams)
    base = np.zeros(len(n_tok), dtype=np.int64)
    np.cumsum(n_grams[:-1], out=base[1:])
    within = np.arange(total, dtype=np.int64) - base[seg]
    pos = off[:-1][seg] + within  # global index of each gram's first token
    cols = [flat.take(pa.array(pos + j)) for j in range(k)]
    grams = pc.binary_join_element_wise(*cols, " ")
    return grams, n_grams


# --------------------------------------------------------------------------
# benchmark contamination check
# --------------------------------------------------------------------------


def q_contamination_check(sf_dir: str):
    """Eval-set contamination scan: flag every training document sharing a
    token 8-gram with the benchmark set (doc_id % 97 == 0 plays the
    benchmark corpus).

    Scale shape: the benchmark side is SMALL by definition (an eval set),
    so its distinct 8-grams are reduced batch-wise and broadcast once inside
    the stage function; the training corpus streams through one map_batches
    doing a vectorized ``is_in`` membership test — no shuffle at all."""
    import ray

    bench_ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sub = batch.filter(pa.array(ids % CONTAM_BENCH_MOD == 0))
        grams, _ = _doc_ngrams(sub.column("text"), CONTAM_NGRAM)
        return pa.table({"g": pc.unique(grams)})

    parts = bench_ds.map_batches(
        bench_grams, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # small by construction: distinct grams of the eval set
    if parts:
        bench = pc.unique(pa.array([r["g"] for r in parts], type=pa.string()))
    else:
        bench = pa.array([], type=pa.string())

    def contam(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sub = batch.filter(pa.array(ids % CONTAM_BENCH_MOD != 0))
        grams, n_grams = _doc_ngrams(sub.column("text"), CONTAM_NGRAM)
        hit = pc.is_in(grams, value_set=bench)
        hit_np = hit.to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(hit_np)])
        ends = np.cumsum(n_grams)
        starts = ends - n_grams
        hits = cum[ends] - cum[starts]
        return pa.table({
            "doc_id": sub.column("doc_id"),
            "n_hits": pa.array(hits, type=pa.int64()),
            "contaminated": pa.array(hits > 0),
        })

    return bench_ds.map_batches(
        contam, batch_format="pyarrow", zero_copy_batch=True
    )


SQL_CONTAMINATION_CHECK = rf"""
    WITH toks AS (
        SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
    ),
    grams AS (
        SELECT doc_id, array_to_string(t[i:i + {CONTAM_NGRAM - 1}], ' ') AS g
        FROM toks, LATERAL (
            SELECT unnest(generate_series(1, len(t) - {CONTAM_NGRAM - 1})) AS i
        )
    ),
    bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {CONTAM_BENCH_MOD} = 0)
    SELECT d.doc_id,
           CAST(COALESCE(SUM(CASE WHEN b.g IS NOT NULL THEN 1 ELSE 0 END), 0)
                AS BIGINT) AS n_hits,
           COALESCE(SUM(CASE WHEN b.g IS NOT NULL THEN 1 ELSE 0 END), 0) > 0
               AS contaminated
    FROM documents d
    LEFT JOIN grams gr ON gr.doc_id = d.doc_id
    LEFT JOIN bench b ON b.g = gr.g
    WHERE d.doc_id % {CONTAM_BENCH_MOD} <> 0
    GROUP BY d.doc_id
"""


# --------------------------------------------------------------------------
# time-RANGE window: trailing 1-hour sum/count/avg per user
# --------------------------------------------------------------------------


def q_time_window_avg(sf_dir: str, n_parts: int | None = None):
    """RANGE-interval windowed aggregate (an operator Ray Data lacks):
    per user, for each event, SUM / COUNT / AVG of value over
    [ts - 1 h, ts] — RANGE semantics, so ts-peers are all included.

    Hash-partitioned by user through ONE groupby.  Inside a partition all
    users resolve together: rows are lexsorted (user, ts), each user
    segment is relocated onto a disjoint integer key range (segment id ×
    stride, stride > max span + 1 h), and TWO global searchsorteds find
    every window's [start, end) — no per-user loop.  Sums run in integer
    cents (association-free), so the SQL window oracle is bit-exact; the
    avg is one double division with identical operands on both sides."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        ts_us = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64())
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "event_id": batch.column("event_id"),
            "cents": cents,
        })

    def windows(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        cents = group.column("cents").to_numpy().astype(np.int64)
        n = len(uid)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, cents = uid[order], ts[order], eid[order], cents[order]
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        seg_id = np.cumsum(new_seg) - 1
        seg_min = ts[new_seg]  # first ts of each segment (sorted)
        spans = np.zeros(len(seg_min), dtype=np.int64)
        np.maximum.at(spans, seg_id, ts - seg_min[seg_id])
        stride = int(spans.max(initial=0)) + HOUR_US + 2
        assert len(seg_min) * stride < np.iinfo(np.int64).max // 2
        key = seg_id * stride + (ts - seg_min[seg_id])
        start = np.searchsorted(key, key - HOUR_US, side="left")
        end = np.searchsorted(key, key, side="right")
        cum = np.concatenate([[0], np.cumsum(cents)])
        w_sum = cum[end] - cum[start]
        w_n = end - start
        return pa.table({
            "event_id": pa.array(eid, type=pa.int64()),
            "user_id": pa.array(uid, type=pa.int64()),
            "w_sum_cents": pa.array(w_sum, type=pa.int64()),
            "w_n": pa.array(w_n, type=pa.int64()),
            "w_avg": pa.array(
                w_sum.astype(np.float64) / (w_n * 100), type=pa.float64()
            ),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", windows, n_parts,
    )


SQL_TIME_WINDOW_AVG = """
    SELECT event_id, user_id,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS BIGINT)
               AS w_sum_cents,
           CAST(COUNT(*) OVER w AS BIGINT) AS w_n,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS DOUBLE)
               / (COUNT(*) OVER w * 100) AS w_avg
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


# --------------------------------------------------------------------------
# RANK / DENSE_RANK per group (with ties)
# --------------------------------------------------------------------------


def q_priority_rank(sf_dir: str, n_parts: int | None = None):
    """Per-customer RANK and DENSE_RANK of orders by priority (a
    low-cardinality key, so ties are real).  Hash-partitioned by customer
    through one groupby; inside a partition every customer's ranks fall
    out of one lexsort + run-boundary flags (RANK = run start offset
    within its customer segment, DENSE_RANK = run count) — no per-group
    task.  All-integer outputs, so the SQL window oracle is exact."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"],
    )

    def ranks(group: pa.Table) -> pa.Table:
        cust = group.column("o_custkey").to_numpy().astype(np.int64)
        okey = group.column("o_orderkey").to_numpy().astype(np.int64)
        prio = np.asarray(group.column("o_orderpriority").to_pylist(), dtype=object)
        # binary collation on ASCII priorities == numpy str ordering
        _, prio_code = np.unique(prio, return_inverse=True)
        order = np.lexsort((okey, prio_code, cust))
        cust, okey, prio, prio_code = (
            cust[order], okey[order], prio[order], prio_code[order]
        )
        n = len(cust)
        idx = np.arange(n, dtype=np.int64)
        new_cust = np.r_[True, cust[1:] != cust[:-1]]
        new_run = new_cust | np.r_[True, prio_code[1:] != prio_code[:-1]]
        cust_start = np.maximum.accumulate(np.where(new_cust, idx, 0))
        run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
        rnk = run_start - cust_start + 1
        runs = np.cumsum(new_run)
        drnk = runs - np.maximum.accumulate(np.where(new_cust, runs, 0)) + 1
        return pa.table({
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "o_custkey": pa.array(cust, type=pa.int64()),
            "o_orderpriority": pa.array(prio, type=pa.string()),
            "rnk": pa.array(rnk, type=pa.int64()),
            "drnk": pa.array(drnk, type=pa.int64()),
        })

    return hash_exchange(ds, "o_custkey", ranks, n_parts)


SQL_PRIORITY_RANK = """
    SELECT o_orderkey, o_custkey, o_orderpriority,
           CAST(RANK() OVER w AS BIGINT) AS rnk,
           CAST(DENSE_RANK() OVER w AS BIGINT) AS drnk
    FROM orders
    WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderpriority)
"""


# --------------------------------------------------------------------------
# global NTILE via exact distributed rank
# --------------------------------------------------------------------------


def q_ntile_values(sf_dir: str, n_parts: int | None = None):
    """Global NTILE(10) over (value, event_id) — requires each row's EXACT
    global rank.  Two passes, no global sort:

    1. a cents-bucket histogram (map-side combine) reduces to the driver as
       O(buckets) rows; the driver derives ~P balanced contiguous bucket
       ranges and the exclusive prefix count of each range — the classic
       range partitioner, with the histogram as an exact sample.
    2. rows shuffle once by range id; each range lexsorts locally and adds
       its prefix, giving exact global ranks (equal values share a cents
       bucket, hence a range, so cross-range order is total).

    Rank and tile are pure integer arithmetic -> exact SQL oracle."""
    from .agg import grouped_aggregate

    import ray
    P = n_partitions(n_parts)

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

    def bucketed(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64())
        bucket = pc.cast(
            pc.floor(pc.divide(pc.cast(cents, pa.float64()), NTILE_BUCKET_CENTS)),
            pa.int64(),
        )
        return pa.table({
            "bucket": bucket,
            "event_id": batch.column("event_id"),
            "value": batch.column("value"),
        })

    bk = ds.map_batches(bucketed, batch_format="pyarrow", zero_copy_batch=True)
    hist = (
        grouped_aggregate(bk, ["bucket"], [("count", None, "n")])
        .to_pandas()
        .sort_values("bucket")
    )
    buckets = hist["bucket"].to_numpy().astype(np.int64)
    counts = hist["n"].to_numpy().astype(np.int64)
    total = int(counts.sum())
    cum = np.concatenate([[0], np.cumsum(counts)])  # exclusive prefix per bucket
    # balanced contiguous ranges: bucket b -> range floor(cum[b] * P / total)
    # (monotone in b, so ranges are contiguous value intervals)
    rid_of_bucket = np.minimum((cum[:-1] * P) // max(total, 1), P - 1)
    # exclusive global prefix of each range = cum at its first bucket
    prefix_by_rid = np.zeros(P, dtype=np.int64)
    uniq_rid, first_idx = np.unique(rid_of_bucket, return_index=True)
    prefix_by_rid[uniq_rid] = cum[first_idx]

    def ranged(batch: pa.Table) -> pa.Table:
        b = batch.column("bucket").to_numpy().astype(np.int64)
        rid = rid_of_bucket[np.searchsorted(buckets, b)]
        return batch.append_column("part", pa.array(rid, type=pa.int64()))

    def tiles(group: pa.Table) -> pa.Table:
        val = group.column("value").to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        rid = int(group.column("part")[0].as_py())
        order = np.lexsort((eid, val))
        eid = eid[order]
        rank0 = int(prefix_by_rid[rid]) + np.arange(len(eid), dtype=np.int64)
        size, rem = divmod(total, NTILE_N)
        big = rem * (size + 1)
        tile = np.where(
            rank0 < big,
            rank0 // (size + 1) if size + 1 > 0 else 0,
            rem + (rank0 - big) // max(size, 1),
        ) + 1
        return pa.table({
            "event_id": pa.array(eid, type=pa.int64()),
            "tile": pa.array(tile, type=pa.int64()),
        })

    return group_map(
        bk.map_batches(ranged, batch_format="pyarrow", zero_copy_batch=True),
        "part", tiles,
    )


SQL_NTILE_VALUES = f"""
    SELECT event_id,
           CAST(NTILE({NTILE_N}) OVER (ORDER BY value, event_id) AS BIGINT) AS tile
    FROM events
"""


# --------------------------------------------------------------------------
# TF-IDF top terms per document
# --------------------------------------------------------------------------


def q_tfidf_top_terms(sf_dir: str):
    """Two-pass TF-IDF, the term-weighting step of corpus indexing:

    pass 1 — document frequency: per batch, per-doc DISTINCT terms reduce
    through an arrow group_by (map-side combine), then one small term
    groupby; the vocabulary (terms with df >= 5) is broadcast inside the
    stage function — vocab << corpus by construction.
    pass 2 — each batch computes per-doc tf with one arrow group_by,
    scores tf·N/df (one multiply + one divide, identical IEEE ops in the
    SQL oracle), and keeps each doc's top-3 by (score DESC, term ASC).

    Docs are single rows, so per-doc tf needs no shuffle at all."""
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    # ONE tokenization pass: both the df pass and the scoring pass stream
    # the checkpointed (doc_id, toks) parquet
    ds = tokenized_docs(sf_dir)

    def df_partials(batch: pa.Table) -> pa.Table:
        flat, off = toks_flat_from_batch(batch)
        did = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.int64), np.diff(off)
        )
        pairs = pa.table({"doc": pa.array(did), "term": flat})
        dist = pairs.group_by(["doc", "term"]).aggregate([])
        out = dist.group_by(["term"]).aggregate([("doc", "count")])
        return pa.table({
            "term": out.column("term"),
            "n": pc.cast(out.column("doc_count"), pa.int64()),
        })

    df_tbl = grouped_aggregate(
        ds.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True),
        ["term"],
        [("sum", "n", "df")],
    )
    kept = (
        df_tbl.map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("df"), TFIDF_DF_MIN)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .to_pandas()  # the vocabulary: small by the df floor
        .sort_values("term")
    )
    vocab = kept["term"].to_numpy().astype(object)
    dfs = kept["df"].to_numpy().astype(np.int64)

    df_of = dict(zip(vocab, dfs.tolist()))

    def tfidf(batch: pa.Table) -> pa.Table:
        flat, off = toks_flat_from_batch(batch)
        did = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.int64), np.diff(off)
        )
        pairs = pa.table({"doc_id": pa.array(did), "term": flat})
        tf_tbl = pairs.group_by(["doc_id", "term"]).aggregate([("term", "count")])
        doc = tf_tbl.column("doc_id").to_numpy().astype(np.int64)
        term = np.asarray(tf_tbl.column("term").to_pylist(), dtype=object)
        tf = tf_tbl.column("term_count").to_numpy().astype(np.int64)
        dfv = np.array([df_of.get(t, 0) for t in term], dtype=np.int64)
        m = dfv > 0
        doc, term, tf, dfv = doc[m], term[m], tf[m], dfv[m]
        score = tf.astype(np.float64) * n_docs / dfv
        order = np.lexsort((term, -score, doc))
        doc, term, tf, dfv, score = (
            doc[order], term[order], tf[order], dfv[order], score[order]
        )
        new_doc = np.r_[True, doc[1:] != doc[:-1]]
        idx = np.arange(len(doc), dtype=np.int64)
        pos = idx - np.maximum.accumulate(np.where(new_doc, idx, 0))
        k = pos < TFIDF_K
        return pa.table({
            "doc_id": pa.array(doc[k], type=pa.int64()),
            "term": pa.array(term[k], type=pa.string()),
            "tf": pa.array(tf[k], type=pa.int64()),
            "df": pa.array(dfv[k], type=pa.int64()),
            "score": pa.array(score[k], type=pa.float64()),
        })

    return ds.map_batches(
        tfidf, batch_format="pyarrow", zero_copy_batch=True
    )


def q_tfidf_top_terms_dist(sf_dir: str, n_parts: int | None = None):
    """Fully-distributed TF-IDF — same output (and same SQL oracle) as
    ``q_tfidf_top_terms``, but with NO broadcast vocabulary: the honest
    100-TB path when the vocabulary itself outgrows a worker.

    Two co-partitioned shuffles: (1) per-doc tf rows and the df table
    union-partitioned by term hash, joined per partition with a sorted
    probe; (2) the scored rows re-partitioned by doc hash for the per-doc
    top-k.  The df table is pre-filtered to df >= 5 before it ever
    shuffles.  Pinned equal to the broadcast path by pytest."""
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate
    from .dedup import _tok8_array

    import ray
    P = n_partitions(n_parts)
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    # ONE tokenization pass shared by both sides (fingerprinted checkpoint)
    ds = tokenized_docs(sf_dir)

    def df_partials(batch: pa.Table) -> pa.Table:
        flat, off = toks_flat_from_batch(batch)
        did = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.int64), np.diff(off)
        )
        pairs = pa.table({"doc": pa.array(did), "term": flat})
        dist = pairs.group_by(["doc", "term"]).aggregate([])
        out = dist.group_by(["term"]).aggregate([("doc", "count")])
        return pa.table({
            "term": out.column("term"),
            "n": pc.cast(out.column("doc_count"), pa.int64()),
        })

    def _term_part(terms: np.ndarray) -> np.ndarray:
        return hash_part(_tok8_array(list(terms)).view(np.int64), P)

    df_side = grouped_aggregate(
        ds.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True),
        ["term"],
        [("sum", "n", "df")],
    ).map_batches(
        lambda b: (lambda t: pa.table({
            "part": pa.array(
                _term_part(np.asarray(t.column("term").to_pylist(), dtype=object)),
                type=pa.int64(),
            ),
            "term": t.column("term"),
            "doc_id": pa.array(np.full(len(t), -1, dtype=np.int64)),
            "tf": pa.array(np.zeros(len(t), dtype=np.int64)),
            "df": t.column("df"),
        }))(b.filter(pc.greater_equal(b.column("df"), TFIDF_DF_MIN))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def tf_rows(batch: pa.Table) -> pa.Table:
        flat, off = toks_flat_from_batch(batch)
        did = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.int64), np.diff(off)
        )
        pairs = pa.table({"doc_id": pa.array(did), "term": flat})
        tf_tbl = pairs.group_by(["doc_id", "term"]).aggregate([("term", "count")])
        term = np.asarray(tf_tbl.column("term").to_pylist(), dtype=object)
        return pa.table({
            "part": pa.array(_term_part(term), type=pa.int64()),
            "term": tf_tbl.column("term"),
            "doc_id": tf_tbl.column("doc_id"),
            "tf": pc.cast(tf_tbl.column("term_count"), pa.int64()),
            "df": pa.array(np.zeros(len(term), dtype=np.int64)),
        })

    tf_side = ds.map_batches(tf_rows, batch_format="pyarrow", zero_copy_batch=True)

    def join_by_term(group: pa.Table) -> pa.Table:
        did = group.column("doc_id").to_numpy().astype(np.int64)
        term = np.asarray(group.column("term").to_pylist(), dtype=object)
        tf = group.column("tf").to_numpy().astype(np.int64)
        dfv = group.column("df").to_numpy().astype(np.int64)
        is_df = did == -1
        vterm, vdf = term[is_df], dfv[is_df]
        vorder = np.argsort(vterm)
        vterm, vdf = vterm[vorder], vdf[vorder]
        pdid, pterm, ptf = did[~is_df], term[~is_df], tf[~is_df]
        if len(vterm) == 0 or len(pdid) == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "term": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
            })
        idx = np.searchsorted(vterm, pterm)
        idx = np.clip(idx, 0, len(vterm) - 1)
        hit = vterm[idx] == pterm
        pdid, pterm, ptf, pdf = pdid[hit], pterm[hit], ptf[hit], vdf[idx[hit]]
        return pa.table({
            "doc_id": pa.array(pdid, type=pa.int64()),
            "term": pa.array(pterm, type=pa.string()),
            "tf": pa.array(ptf, type=pa.int64()),
            "df": pa.array(pdf, type=pa.int64()),
        })

    def topk_by_doc(group: pa.Table) -> pa.Table:
        doc = group.column("doc_id").to_numpy().astype(np.int64)
        term = np.asarray(group.column("term").to_pylist(), dtype=object)
        tf = group.column("tf").to_numpy().astype(np.int64)
        dfv = group.column("df").to_numpy().astype(np.int64)
        score = tf.astype(np.float64) * n_docs / dfv
        order = np.lexsort((term, -score, doc))
        doc, term, tf, dfv, score = (
            doc[order], term[order], tf[order], dfv[order], score[order]
        )
        new_doc = np.r_[True, doc[1:] != doc[:-1]]
        idx = np.arange(len(doc), dtype=np.int64)
        pos = idx - np.maximum.accumulate(np.where(new_doc, idx, 0))
        k = pos < TFIDF_K
        return pa.table({
            "doc_id": pa.array(doc[k], type=pa.int64()),
            "term": pa.array(term[k], type=pa.string()),
            "tf": pa.array(tf[k], type=pa.int64()),
            "df": pa.array(dfv[k], type=pa.int64()),
            "score": pa.array(score[k], type=pa.float64()),
        })

    return hash_exchange(
        group_map(tf_side.union(df_side), "part", join_by_term),
        "doc_id", topk_by_doc, P,
    )


SQL_TFIDF_TOP_TERMS = rf"""
    WITH toks AS (
        SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
        FROM documents
    ),
    tf AS (
        SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
        FROM toks GROUP BY doc_id, term
    ),
    df AS (
        SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
        FROM toks GROUP BY term
        HAVING COUNT(DISTINCT doc_id) >= {TFIDF_DF_MIN}
    ),
    scored AS (
        SELECT t.doc_id, t.term, t.tf, d.df,
               CAST(t.tf AS DOUBLE) * (SELECT COUNT(*) FROM documents) / d.df
                   AS score
        FROM tf t JOIN df d USING (term)
    )
    SELECT doc_id, term, tf, df, score
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, term) AS rn
          FROM scored)
    WHERE rn <= {TFIDF_K}
"""


# --------------------------------------------------------------------------
# per-user hourly resample with gap fill
# --------------------------------------------------------------------------


def q_user_hour_gapfill(sf_dir: str, n_parts: int | None = None):
    """Time-series densification: per user, one row per hour from the
    user's first to last event hour, zero-filling hours with no events.

    (user, hour) counts reduce through the map-side-combined groupby; the
    fan-out to missing hours happens per hash partition with repeat/arange
    + a searchsorted join against the partition's own counts — the dense
    ranges never exist as a shuffled dataset.  All integers -> exact."""
    from .agg import grouped_aggregate

    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def hours(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        hr = (
            batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
            // HOUR_US
        )
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "hr": pa.array(hr, type=pa.int64()),
        })

    counts = grouped_aggregate(
        ds.map_batches(hours, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "hr"],
        [("count", None, "n")],
    )

    def gapfill(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        hr = group.column("hr").to_numpy().astype(np.int64)
        n = group.column("n").to_numpy().astype(np.int64)
        order = np.lexsort((hr, uid))
        uid, hr, n = uid[order], hr[order], n[order]
        new_u = np.r_[True, uid[1:] != uid[:-1]]
        h0 = hr[new_u]
        ends = np.r_[np.flatnonzero(new_u)[1:], len(uid)] - 1
        h1 = hr[ends]
        span = h1 - h0 + 1
        users = uid[new_u]
        out_uid = np.repeat(users, span)
        base = np.zeros(len(users), dtype=np.int64)
        np.cumsum(span[:-1], out=base[1:])
        total = int(span.sum())
        out_hr = (
            np.repeat(h0, span)
            + np.arange(total, dtype=np.int64)
            - base[np.repeat(np.arange(len(users)), span)]
        )
        # composite-key join: both sides are lexsorted by (user, hr); pack
        # into one monotone int64 key (hour deltas fit well inside 21 bits —
        # 2^21 hours is ~240 years of span)
        hr0 = hr.min()
        assert (h1 - hr0).max() < (1 << 21)
        key_have = (uid << 21) | (hr - hr0)
        key_want = (out_uid << 21) | (out_hr - hr0)
        idx = np.searchsorted(key_have, key_want)
        idx = np.clip(idx, 0, len(key_have) - 1)
        hit = key_have[idx] == key_want
        out_n = np.where(hit, n[idx], 0)
        return pa.table({
            "user_id": pa.array(out_uid, type=pa.int64()),
            "hr": pa.array(out_hr, type=pa.int64()),
            "n_events": pa.array(out_n, type=pa.int64()),
        })

    return hash_exchange(counts, "user_id", gapfill, n_parts)


SQL_USER_HOUR_GAPFILL = """
    WITH c AS (
        SELECT user_id, epoch_us(ts) // 3600000000 AS hr,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM events GROUP BY 1, 2
    ),
    span AS (SELECT user_id, MIN(hr) AS h0, MAX(hr) AS h1 FROM c GROUP BY 1),
    grid AS (SELECT user_id, unnest(generate_series(h0, h1)) AS hr FROM span)
    SELECT g.user_id, CAST(g.hr AS BIGINT) AS hr,
           CAST(COALESCE(c.n, 0) AS BIGINT) AS n_events
    FROM grid g
    LEFT JOIN c ON c.user_id = g.user_id AND c.hr = g.hr
"""


# --------------------------------------------------------------------------
# EXISTS semi join with payload columns
# --------------------------------------------------------------------------


def q_big_spenders(sf_dir: str, n_parts: int | None = None):
    """Distributed EXISTS semi join: customers having at least one order
    above the threshold, keeping the probe side's payload columns.

    Build side reduces to DISTINCT qualifying keys map-side; both sides
    co-partition through one union + groupby on the key hash; each
    partition emits its customer rows whose key appears in its build keys
    (sorted-array membership).  No driver-side key set, no broadcast —
    the build side may be arbitrarily large."""
    import ray

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def cust_side(batch: pa.Table) -> pa.Table:
        key = batch.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key, type=pa.int64()),
            "c_name": batch.column("c_name"),
            "c_acctbal": batch.column("c_acctbal"),
            "probe": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    def build_side(batch: pa.Table) -> pa.Table:
        m = pc.greater(batch.column("o_totalprice"), BIG_SPENDER_MIN)
        key = pc.unique(batch.filter(m).column("o_custkey"))
        n = len(key)
        return pa.table({
            "key": pc.cast(key, pa.int64()),
            "c_name": pa.array([None] * n, type=pa.string()),
            "c_acctbal": pa.array([None] * n, type=pa.float64()),
            "probe": pa.array(np.zeros(n, dtype=np.int64)),
        })

    both = cust.map_batches(
        cust_side, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        orders.map_batches(build_side, batch_format="pyarrow", zero_copy_batch=True)
    )

    def semi(group: pa.Table) -> pa.Table:
        probe = group.column("probe").to_numpy().astype(np.int64)
        key = group.column("key").to_numpy().astype(np.int64)
        build_keys = np.unique(key[probe == 0])
        sub = group.filter(pa.array(probe == 1))
        pk = sub.column("key").to_numpy().astype(np.int64)
        hit = np.zeros(len(pk), dtype=bool)
        if len(build_keys):
            idx = np.searchsorted(build_keys, pk)
            idx = np.clip(idx, 0, len(build_keys) - 1)
            hit = build_keys[idx] == pk
        out = sub.filter(pa.array(hit))
        return pa.table({
            "c_custkey": out.column("key"),
            "c_name": out.column("c_name"),
            "c_acctbal": out.column("c_acctbal"),
        })

    return hash_exchange(both, "key", semi, n_parts)


SQL_BIG_SPENDERS = f"""
    SELECT c_custkey, c_name, c_acctbal
    FROM customer c
    WHERE EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_totalprice > {BIG_SPENDER_MIN!r})
"""


# --------------------------------------------------------------------------
# ordered event-path trigram mining
# --------------------------------------------------------------------------


def q_event_path_trigrams(sf_dir: str, n_parts: int | None = None):
    """Sequence mining over the event stream: the top 20 three-step
    event-type paths taken by users (consecutive events ordered by
    (ts, event_id) within user — LEAD×2 semantics).

    Hash-partitioned by user (paths never cross users); within a
    partition, one lexsort + two shifted takes + one elementwise join
    build all trigrams, an arrow group_by combines map-side, a small key
    groupby sums globally, and a per-block partial top-k caps the final
    sort at k×blocks rows."""
    from .agg import grouped_aggregate

    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        ts_us = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "event_id": batch.column("event_id"),
            "event_type": batch.column("event_type"),
        })

    def tri_counts(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        et = group.column("event_type").combine_chunks() if isinstance(
            group.column("event_type"), pa.ChunkedArray
        ) else group.column("event_type")
        et = et.take(pa.array(order))
        uid = uid[order]
        n = len(uid)
        if n < 3:
            return pa.table({
                "path": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
            })
        valid = uid[:-2] == uid[2:]
        t0 = et.slice(0, n - 2).filter(pa.array(valid))
        t1 = et.slice(1, n - 2).filter(pa.array(valid))
        t2 = et.slice(2, n - 2).filter(pa.array(valid))
        path = pc.binary_join_element_wise(t0, t1, t2, " > ")
        tbl = pa.table({"path": path})
        out = tbl.group_by(["path"]).aggregate([("path", "count")])
        return pa.table({
            "path": out.column("path"),
            "n": pc.cast(out.column("path_count"), pa.int64()),
        })

    counts = grouped_aggregate(
        hash_exchange(
            ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
            "user_id", tri_counts, n_parts,
        ),
        ["path"],
        [("sum", "n", "n")],
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        p = np.asarray(batch.column("path").to_pylist(), dtype=object)
        order = np.lexsort((p, -n))[:PATH_TOP_K]
        return pa.table({
            "path": pa.array(p[order], type=pa.string()),
            "n": pa.array(n[order], type=pa.int64()),
        })

    return (
        counts.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["n", "path"], descending=[True, False])
        .limit(PATH_TOP_K)
    )


SQL_EVENT_PATH_TRIGRAMS = f"""
    WITH s AS (
        SELECT user_id, event_type,
               LEAD(event_type, 1) OVER w AS t1,
               LEAD(event_type, 2) OVER w AS t2
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    )
    SELECT event_type || ' > ' || t1 || ' > ' || t2 AS path,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM s WHERE t2 IS NOT NULL
    GROUP BY 1
    ORDER BY n DESC, path
    LIMIT {PATH_TOP_K}
"""


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def build_queries_ext2() -> dict:
    return {
        "contamination_check": q_contamination_check,
        "time_window_avg": q_time_window_avg,
        "priority_rank": q_priority_rank,
        "ntile_values": q_ntile_values,
        "tfidf_top_terms": q_tfidf_top_terms,
        "tfidf_top_terms_dist": q_tfidf_top_terms_dist,
        "user_hour_gapfill": q_user_hour_gapfill,
        "big_spenders": q_big_spenders,
        "event_path_trigrams": q_event_path_trigrams,
    }


def build_oracles_ext2() -> dict:
    return {
        "contamination_check": SQL_CONTAMINATION_CHECK,
        "time_window_avg": SQL_TIME_WINDOW_AVG,
        "priority_rank": SQL_PRIORITY_RANK,
        "ntile_values": SQL_NTILE_VALUES,
        "tfidf_top_terms": SQL_TFIDF_TOP_TERMS,
        "tfidf_top_terms_dist": SQL_TFIDF_TOP_TERMS,
        "user_hour_gapfill": SQL_USER_HOUR_GAPFILL,
        "big_spenders": SQL_BIG_SPENDERS,
        "event_path_trigrams": SQL_EVENT_PATH_TRIGRAMS,
    }
