"""Round-3 extension operators, batch 40: Count-Min sketch.

``cmsketch_word_counts`` — the classic mergeable frequency sketch
(Cormode & Muthukrishnan) built distributed, with an EXACT DuckDB
oracle: because the d=4 row hashes are ``md5_number_lower(j || ':' ||
token) % 1024`` (the repo-wide SQL-replayable hash convention), the
entire 4x1024 counter array — and therefore every point estimate — is
deterministic and replayed value-exactly in SQL.  Most sketch operators
here are rows-only (HLL, quantile sketch); CM-sketch is the one whose
estimate is a pure monoid sum, so it gets a real oracle.

Output: for the top-50 words by exact count, ``(word, exact_cnt,
cm_est)`` — the oracle equality doubles as a machine-checked proof of
the CM overestimate guarantee (``cm_est >= exact_cnt`` always).

Scale shape: exact word counts ride the existing high-cardinality hash
exchange (vocabulary-sized result, materialized once for its two
consumers); per-block top-50 partials fold on the driver (bounded
50 x blocks); sketch partials are (j, bucket, c) rows collapsing
map-side to <= 4096 per block, final aggregate is 4096 rows — constant,
the whole point of a sketch.  Per-distinct-word md5 runs once per word
(vocabulary-bounded, the feature_hash convention).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CM_D = 4
CM_W = 1024
TOP_K = 50


def _cm_buckets(words: list[str]) -> np.ndarray:
    """(len(words), CM_D) bucket ids via md5_number_lower(j ':' word)."""
    out = np.empty((len(words), CM_D), dtype=np.int64)
    for i, w in enumerate(words):
        for j in range(CM_D):
            m = int.from_bytes(
                hashlib.md5(f"{j}:{w}".encode()).digest()[8:], "little"
            )
            out[i, j] = m % CM_W
    return out


def _word_counts(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(
            pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
        )
        words = words.filter(pc.not_equal(words, ""))
        t = pa.table({"word": words})
        out = t.group_by(["word"]).aggregate([("word", "count")])
        return pa.table({
            "word": out.column("word"),
            "cnt": pc.cast(out.column("word_count"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_aggregate(
        partials, ["word"], [("sum", "cnt", "cnt")]
    )


def q_cmsketch_word_counts(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    wc = _word_counts(sf_dir).materialize()  # vocabulary-sized, 2 consumers

    # global top-50 by (count DESC, word ASC): per-block partials, driver fold
    def block_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        w = np.array(batch.column("word").to_pylist(), dtype=object)
        c = batch.column("cnt").to_numpy().astype(np.int64)
        order = np.lexsort((w, -c))[:TOP_K]
        return batch.take(pa.array(order, type=pa.int64()))

    tops = wc.map_batches(
        block_top, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # bounded: TOP_K x blocks rows
    tops = tops.sort_values(["cnt", "word"], ascending=[False, True]).head(TOP_K)

    # sketch build: (j, b, c) partials, constant-size final aggregate
    def sketch_partial(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        c = batch.column("cnt").to_numpy().astype(np.int64)
        if not words:
            return pa.table({
                "j": pa.array([], type=pa.int64()),
                "b": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.int64()),
            })
        buckets = _cm_buckets(words)  # (n, d)
        t = pa.table({
            "j": pa.array(np.tile(np.arange(CM_D), len(words)), type=pa.int64()),
            "b": pa.array(buckets.ravel(), type=pa.int64()),
            "s": pa.array(np.repeat(c, CM_D), type=pa.int64()),
        })
        out = t.group_by(["j", "b"]).aggregate([("s", "sum")])
        return pa.table({
            "j": out.column("j"), "b": out.column("b"),
            "s": pc.cast(out.column("s_sum"), pa.int64()),
        })

    sk = grouped_aggregate(
        wc.map_batches(sketch_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["j", "b"], [("sum", "s", "s")],
    ).to_pandas()  # bounded: <= CM_D * CM_W rows — the sketch itself
    counters = np.zeros((CM_D, CM_W), dtype=np.int64)
    counters[sk["j"].to_numpy(), sk["b"].to_numpy()] = sk["s"].to_numpy()

    qwords = tops["word"].tolist()
    qb = _cm_buckets(qwords)
    est = counters[np.arange(CM_D)[None, :], qb].min(axis=1)

    t = pa.table({
        "word": pa.array(qwords, type=pa.string()),
        "exact_cnt": pa.array(tops["cnt"].to_numpy().astype(np.int64),
                              type=pa.int64()),
        "cm_est": pa.array(est, type=pa.int64()),
    })
    return ray.data.from_arrow(t)


SQL_CMSKETCH_WORD_COUNTS = f"""
WITH toks AS (
  SELECT unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                            w -> w <> '')) AS tok
  FROM documents
), cnt AS (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS c FROM toks GROUP BY tok
), topw AS (
  SELECT tok, c FROM cnt ORDER BY c DESC, tok LIMIT {TOP_K}
), js AS (
  SELECT unnest(range({CM_D})) AS j
), sketch AS (
  SELECT j,
         md5_number_lower(CAST(j AS VARCHAR) || ':' || tok) % {CM_W} AS b,
         CAST(SUM(c) AS BIGINT) AS s
  FROM cnt, js GROUP BY 1, 2
)
SELECT t.tok AS word, t.c AS exact_cnt, CAST(MIN(sk.s) AS BIGINT) AS cm_est
FROM topw t CROSS JOIN js r
JOIN sketch sk
  ON sk.j = r.j
 AND sk.b = md5_number_lower(CAST(r.j AS VARCHAR) || ':' || t.tok) % {CM_W}
GROUP BY t.tok, t.c
"""


def build_queries_ext40() -> dict:
    return {"cmsketch_word_counts": q_cmsketch_word_counts}


def build_oracles_ext40() -> dict:
    return {"cmsketch_word_counts": SQL_CMSKETCH_WORD_COUNTS}
