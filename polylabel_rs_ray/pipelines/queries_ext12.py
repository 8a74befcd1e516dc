"""Round-2 extension operators, batch 13: windowed distincts + text index.

* ``sliding_window_users`` — COUNT(DISTINCT user) per sliding window
  (1 h window / 15 min hop): the fixed-factor window fan-out feeds a
  pair-dedup aggregate (shuffle carries unique (window, user) pairs per
  block), then a constant-size per-window count — the streaming-distinct
  shape at any scale.
* ``inverted_index`` — text index build: per word, document frequency
  and the ordered posting list of doc ids.  (word, doc) pairs dedup
  through a map-side-combined groupby, co-partition by hash(word), and
  each partition emits its words' joined postings from one lexsort —
  no per-word task, no global sort (the ``event_types_per_user``
  machinery pointed at an unbounded key domain)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

HOP_US = 900_000_000
WIN_HOPS = 4


def q_sliding_window_users(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def fanout(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        h = ts_us // HOP_US
        n = len(h)
        ws = (np.repeat(h, WIN_HOPS) - np.tile(np.arange(WIN_HOPS, dtype=np.int64), n)) * HOP_US
        return pa.table({
            "ws_us": pa.array(ws, type=pa.int64()),
            "user_id": pa.array(np.repeat(uid, WIN_HOPS), type=pa.int64()),
        })

    pairs = grouped_aggregate(
        ds.map_batches(fanout, batch_format="pyarrow", zero_copy_batch=True),
        ["ws_us", "user_id"],
        [("count", None, "_n")],
    )
    return grouped_aggregate(pairs, ["ws_us"], [("count", None, "n_users")])


SQL_SLIDING_WINDOW_USERS = """
    SELECT (epoch_us(ts) // 900000000 - j.j) * 900000000 AS ws_us,
           CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
    FROM events
    CROSS JOIN (SELECT UNNEST(generate_series(0, 3)) AS j) j
    GROUP BY 1
"""


def q_inverted_index(sf_dir: str, n_parts: int | None = None):
    """ONE hash exchange on mix(word) % P: every copy of a word lands in
    the same partition, so global pair dedup + posting assembly happen
    there (the old shape paid a second shuffle for a ~unique-key pair
    aggregate first).  The map side dedupes (word, doc) per block (Arrow C++
    group_by), the reduce side dedupes across blocks, sorts once, and
    joins each word's postings with one ``binary_join`` over a ListArray
    view — no per-word Python anywhere."""
    from .agg import _key_hash
    from .queries_ext5 import _word_lists

    import ray
    P = n_partitions(n_parts)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def word_doc(batch: pa.Table) -> pa.Table:
        flat, counts, doc_idx = _word_lists(batch)
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        pairs = pa.table({
            "word": flat,
            "doc_id": pa.array(did[doc_idx], type=pa.int64()),
        }).group_by(["word", "doc_id"]).aggregate([])  # per-block dedup
        part = (_key_hash(pairs, ["word"]) % np.uint64(P)).astype(np.int64)
        return pairs.append_column("part", pa.array(part, type=pa.int64()))

    def join_postings(group: pa.Table) -> pa.Table:
        # cross-block dedup (C++ hash), then one sort drives everything
        t = group.drop_columns(["part"]).group_by(["word", "doc_id"]).aggregate([])
        t = t.take(pc.sort_indices(
            t, sort_keys=[("word", "ascending"), ("doc_id", "ascending")]
        ))
        w = t.column("word")
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        n = len(w)
        if n == 0:
            return pa.table({
                "word": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
                "postings": pa.array([], type=pa.string()),
            })
        neq = pc.not_equal(w.slice(1), w.slice(0, n - 1)).to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.flatnonzero(neq) + 1]
        ends = np.r_[starts[1:], n]
        did_str = pc.cast(t.column("doc_id"), pa.string())
        if isinstance(did_str, pa.ChunkedArray):
            did_str = did_str.combine_chunks()
        lists = pa.ListArray.from_arrays(
            pa.array(np.r_[starts, n].astype(np.int32), type=pa.int32()), did_str
        )
        return pa.table({
            "word": w.take(pa.array(starts, type=pa.int64())),
            "df": pa.array((ends - starts).astype(np.int64), type=pa.int64()),
            "postings": pc.binary_join(lists, ","),
        })

    return group_map(
        ds.map_batches(word_doc, batch_format="pyarrow", zero_copy_batch=True),
        "part", join_postings,
    )


SQL_INVERTED_INDEX = """
    WITH wd AS (
        SELECT DISTINCT w.word, d.doc_id
        FROM documents d,
             UNNEST(string_split(d.text, ' ')) AS w(word)
    )
    SELECT word, CAST(COUNT(*) AS BIGINT) AS df,
           STRING_AGG(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
    FROM wd GROUP BY word
"""


def build_queries_ext12() -> dict:
    return {
        "sliding_window_users": q_sliding_window_users,
        "inverted_index": q_inverted_index,
    }


def build_oracles_ext12() -> dict:
    return {
        "sliding_window_users": SQL_SLIDING_WINDOW_USERS,
        "inverted_index": SQL_INVERTED_INDEX,
    }
