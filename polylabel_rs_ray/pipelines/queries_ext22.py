"""Round-3 extension operators, batch 22: rare-token quality scoring.

``rare_token_stats`` — the OOV/rare-token curation signal: per document,
how many of its tokens occur fewer than ``RARE_MIN_FREQ`` times in the
whole corpus (high rare ratio = misspellings / mojibake / boilerplate
IDs — a standard pre-training quality filter).

Scale shape: corpus token frequencies reduce through the hash-partitioned
aggregate (vocabulary keys are ~unique); only the COMMON vocabulary
(freq >= T, size <= total_tokens/T by pigeonhole — the bounded side, NOT
the unbounded rare tail) is collected and broadcast via ``ray.put``; the
per-document pass is one stateless vectorized map (arrow ``is_in`` against
the broadcast value set).  All outputs are integers (half-up percent via
``(200*i + u) // (2*u)``), so the DuckDB oracle replays them exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

RARE_MIN_FREQ = 3  # a token is "common" iff corpus freq >= this


def q_rare_token_stats(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    # pass 1: corpus token frequencies (map-side value_counts, then the
    # high-cardinality hash exchange — vocab keys are ~unique)
    def tok_counts(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch.column("text"), " ")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        vc = pc.value_counts(lists.values)
        return pa.table({
            "word": vc.field("values"),
            "n": pc.cast(vc.field("counts"), pa.int64()),
        })

    freqs = grouped_aggregate(
        ds.map_batches(tok_counts, batch_format="pyarrow", zero_copy_batch=True),
        ["word"],
        [("sum", "n", "n")],
    )

    # common vocabulary: freq >= T.  |common| <= total_tokens / T by
    # pigeonhole — the bounded side of the vocabulary (the rare tail is
    # the unbounded one), so the driver-side collect + broadcast is safe.
    def keep_common(batch: pa.Table) -> pa.Table:
        mask = pc.greater_equal(batch.column("n"), RARE_MIN_FREQ)
        return batch.filter(mask).select(["word"])

    tbls = [
        t for t in ray.get(
            freqs.map_batches(
                keep_common, batch_format="pyarrow", zero_copy_batch=True
            ).to_arrow_refs()
        )
        if t.num_columns  # Ray emits schemaless empty blocks — drop them
    ]
    common_tbl = (pa.concat_tables(tbls) if tbls
                  else pa.table({"word": pa.array([], type=pa.string())}))
    common_ref = ray.put(common_tbl.column("word").combine_chunks())

    # pass 2: stateless per-doc membership count against the broadcast set
    def doc_stats(batch: pa.Table) -> pa.Table:
        common = ray.get(common_ref)
        lists = pc.split_pattern(batch.column("text"), " ")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        offsets = lists.offsets.to_numpy()
        counts = np.diff(offsets).astype(np.int64)
        hit = pc.is_in(lists.values, value_set=common).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n_common = np.add.reduceat(hit, offsets[:-1]) if len(hit) else \
            np.zeros(len(counts), np.int64)
        n_common = np.where(counts > 0, n_common, 0)
        n_rare = counts - n_common
        pct = np.where(
            counts > 0,
            (200 * n_rare + counts) // np.maximum(2 * counts, 1),
            0,
        )
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "n_tokens": pa.array(counts, type=pa.int64()),
            "n_rare": pa.array(n_rare, type=pa.int64()),
            "rare_pct": pa.array(pct.astype(np.int64), type=pa.int64()),
        })

    return ds.map_batches(doc_stats, batch_format="pyarrow", zero_copy_batch=True)


# SQL replay: same single-space tokenizer as heavy_hitter_words; counts are
# integers, percent is the repo's half-up integer formula.
SQL_RARE_TOKEN_STATS = f"""
    WITH w AS (
      SELECT doc_id, UNNEST(string_split(text, ' ')) AS word FROM documents
    ), c AS (
      SELECT word, COUNT(*) AS n FROM w GROUP BY 1
    ), per AS (
      SELECT w.doc_id,
             CAST(COUNT(*) AS BIGINT) AS n_tokens,
             CAST(SUM(CASE WHEN c.n < {RARE_MIN_FREQ} THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_rare
      FROM w JOIN c USING (word) GROUP BY w.doc_id
    )
    SELECT doc_id, n_tokens, n_rare,
           CAST(CASE WHEN n_tokens = 0 THEN 0
                     ELSE (200 * n_rare + n_tokens) // (2 * n_tokens)
                END AS BIGINT) AS rare_pct
    FROM per
"""


def build_queries_ext22() -> dict:
    return {"rare_token_stats": q_rare_token_stats}


def build_oracles_ext22() -> dict:
    return {"rare_token_stats": SQL_RARE_TOKEN_STATS}
