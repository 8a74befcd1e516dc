"""Round-3 extension operators, batch 151: prefix-blocking dedup savings
+ exact half-life activity decay.

``prefix_dup_token_savings`` — the dedup-planning op of an LLM corpus
pipeline: documents are blocked on their first-8-token prefix (the
classic cheap blocking key that seeds near-dup candidate generation),
and for every block holding more than one document the engine reports
the token budget recovered by keeping only the lowest-doc_id member:
``tokens_saved = Σ tokens − tokens(kept)``.  The kept member's token
count rides the aggregation as a packed ``doc_id·2^20 + tokens`` min key
(tokens ≤ 100 ≪ 2^20), so the whole query is one hash exchange — no
second join back to the corpus.  Prefix normalization (any whitespace
run → single space) is pinned identical on both sides:
``extract_regex + replace_substring_regex`` in Arrow vs
``array_to_string(regexp_extract_all(text,'\\S+')[1:8], ' ')`` in SQL.

``halflife_activity_score`` — recency-weighted user activity with EXACT
dyadic decay: each event contributes ``round(value·100) · 2^(K−age)``
where ``age = max_day − event_day`` (global max day, capped at K=20 so
the weight floor is 1).  Powers of two make the decay exactly
representable in int64 — no libm, no float drift — so the oracle is
bit-exact (bound: 56k cents · 2^20 · ≤99 events/user ≈ 6e12 ≪ 2^63;
the 100-TB upgrade path is HUGEINT partials emitted as decimal
strings, the ols_price_model pattern).  Two passes: an O(1) max-day
aggregate, then one map-side-combined per-user sum.

Reference anchors: dedup + sessionization families (SURVEY.md §2.4);
siblings: exact_dedup / canonical_docs (packed-key groupby),
user_time_weighted_value (exact per-user integral).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
PFX_TOKENS = 8
TOK_PACK = 1 << 20  # tokens < 2^20: pack (doc_id, tokens) into one int64
HALF_LIFE_CAP = 20  # weight = 2^(CAP - min(age, CAP))


# --------------------------------------------------------------------------
# prefix_dup_token_savings
# --------------------------------------------------------------------------


def q_prefix_dup_token_savings(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        m = pc.extract_regex(
            text, pattern=r"^(?P<p>\S+(?:\s+\S+){0,%d})" % (PFX_TOKENS - 1))
        pfx = pc.fill_null(
            pc.replace_substring_regex(
                pc.struct_field(m, "p"), pattern=r"\s+", replacement=" "),
            "")
        tok = pc.cast(
            pc.count_substring_regex(text, pattern=r"\S+"), pa.int64())
        doc = pc.cast(batch.column("doc_id"), pa.int64())
        packed = pc.add(pc.multiply(doc, pa.scalar(TOK_PACK, pa.int64())),
                        tok)
        return pa.table({
            "pfx": pfx,
            "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            "tok": tok,
            "packed": packed,
        })

    agg = grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["pfx"],
        [("sum", "one", "n_docs"), ("sum", "tok", "sum_tok"),
         ("min", "packed", "min_packed")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n_docs").to_numpy().astype(np.int64)
        keep = n > 1
        packed = batch.column("min_packed").to_numpy().astype(np.int64)[keep]
        sum_tok = batch.column("sum_tok").to_numpy().astype(np.int64)[keep]
        return pa.table({
            "pfx": pc.array_filter(batch.column("pfx"),
                                   pa.array(keep, type=pa.bool_())),
            "n_docs": pa.array(n[keep], type=pa.int64()),
            "keep_doc_id": pa.array(packed // TOK_PACK, type=pa.int64()),
            "tokens_saved": pa.array(sum_tok - packed % TOK_PACK,
                                     type=pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_PREFIX_DUP_TOKEN_SAVINGS = r"""
WITH p AS (
  SELECT doc_id,
         array_to_string(regexp_extract_all(text, '\S+')[1:8], ' ') AS pfx,
         len(regexp_extract_all(text, '\S+')) AS tok
  FROM documents
)
SELECT pfx,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(MIN(doc_id * 1048576 + tok) // 1048576 AS BIGINT)
           AS keep_doc_id,
       CAST(SUM(tok) - MIN(doc_id * 1048576 + tok) % 1048576 AS BIGINT)
           AS tokens_saved
FROM p
GROUP BY 1
HAVING COUNT(*) > 1
"""


# --------------------------------------------------------------------------
# halflife_activity_score
# --------------------------------------------------------------------------


def q_halflife_activity_score(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    path = f"{sf_dir}/events.parquet"

    # pass 1: global max day (O(1) aggregate)
    max_day = int(
        ray.data.read_parquet(path, columns=["ts"])
        .map_batches(
            lambda b: pa.table({"d": pa.array(
                [int(pc.cast(b.column("ts"), pa.int64())
                     .to_numpy().max()) // DAY_US], type=pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
        .max("d")
    )

    ds = ray.data.read_parquet(path, columns=["user_id", "ts", "value"])

    def stage(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        age = np.minimum(max_day - day, HALF_LIFE_CAP)
        w = np.left_shift(np.int64(1), (HALF_LIFE_CAP - age).astype(np.int64))
        cents = np.round(
            batch.column("value").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "one": pa.array(np.ones(len(day), dtype=np.int64)),
            "s": pa.array(cents * w, type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("count", None, "n_events"), ("sum", "s", "score_scaled")],
    )


SQL_HALFLIFE_ACTIVITY_SCORE = f"""
WITH mx AS (
  SELECT MAX(epoch_us(ts) // {DAY_US}) AS max_day FROM events
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)
                * (CAST(1 AS BIGINT) << CAST({HALF_LIFE_CAP} - LEAST(
                      mx.max_day - epoch_us(ts) // {DAY_US},
                      {HALF_LIFE_CAP}) AS INTEGER)))
            AS BIGINT) AS score_scaled
FROM events, mx
GROUP BY 1
"""


def build_queries_ext151() -> dict:
    return {
        "prefix_dup_token_savings": q_prefix_dup_token_savings,
        "halflife_activity_score": q_halflife_activity_score,
    }


def build_oracles_ext151() -> dict:
    return {
        "prefix_dup_token_savings": SQL_PREFIX_DUP_TOKEN_SAVINGS,
        "halflife_activity_score": SQL_HALFLIFE_ACTIVITY_SCORE,
    }
