"""Round-3 extension operators, batch 126: search-index storage planning
— Roaring container costs + posting-list delta compression.

``roaring_cost_estimate`` — the Roaring-bitmap sizing pass of a
bitmap-index planner: event ids per event type are bucketed into
Roaring's 2^16-wide containers (``event_id >> 16``); a container with
n distinct ids costs ``2·n`` bytes as a sorted-array container when
n < 4096, else a fixed 8192-byte bitmap container (the classic
array/bitmap break-even), plus a 16-byte per-container header.  Per
type: container counts by kind and total bytes — all exact int64.
The (type, bucket) distinct-count table is bounded (types × id-range
/ 65536) and flows through the map-side combine (event ids are unique
per row, so per-batch counts ARE distinct counts after the combine).
Oracle: the same bucket rollup + CASE break-even in SQL.

``posting_list_cost`` — the inverted-index compression audit: for
every distinct word of the document corpus (the bounded synthetic
vocabulary), the document frequency and the exact varint byte cost of
delta-encoding its SORTED distinct posting list (first id encodes
absolutely; each subsequent gap costs ``ceil(bits/7)`` bytes — the
``varint_size_estimate`` ladder).  One hash exchange on the word
(inverted_index discipline: map-side (word, doc) dedup, reduce-side
global dedup + sort + vectorized delta/byte fold).  Oracle: LAG
deltas per word ordered by doc_id + the shared CASE ladder.

Reference anchors: storage/encoding-cost family (SURVEY.md §2.4);
siblings: inverted_index (posting assembly), varint_size_estimate
(byte ladder), dict_encoding_estimate, for_encoding_cost.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

ROARING_BREAK_EVEN = 4096
ROARING_BITMAP_BYTES = 8192
ROARING_HEADER_BYTES = 16

_VARINT_LADDER = " ".join(
    f"WHEN dt < {1 << (7 * k)} THEN {k}" for k in range(1, 10)
)


# --------------------------------------------------------------------------
# roaring_cost_estimate
# --------------------------------------------------------------------------


def q_roaring_cost_estimate(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "event_type"])

    def bucket(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "bucket": pa.array(eid >> 16, type=pa.int64()),
        })
        out = t.group_by(["event_type", "bucket"]).aggregate(
            [("bucket", "count")])
        return pa.table({
            "event_type": out.column("event_type"),
            "bucket": out.column("bucket"),
            "n": pc.cast(out.column("bucket_count"), pa.int64()),
        })

    # event ids are unique, so summed per-batch counts ARE distinct counts
    per_bucket = grouped_aggregate(
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "bucket"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: types × (id range / 65536)

    types, nc, na, nb, tb = [], [], [], [], []
    for et, g in per_bucket.groupby("event_type"):
        n = g["n"].to_numpy().astype(np.int64)
        is_arr = n < ROARING_BREAK_EVEN
        cost = np.where(is_arr, 2 * n, ROARING_BITMAP_BYTES)
        types.append(et)
        nc.append(len(n))
        na.append(int(is_arr.sum()))
        nb.append(int((~is_arr).sum()))
        tb.append(int(cost.sum()) + ROARING_HEADER_BYTES * len(n))
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n_containers": pa.array(nc, type=pa.int64()),
        "array_containers": pa.array(na, type=pa.int64()),
        "bitmap_containers": pa.array(nb, type=pa.int64()),
        "total_bytes": pa.array(tb, type=pa.int64()),
    }))


SQL_ROARING_COST_ESTIMATE = f"""
WITH b AS (
  SELECT event_type, event_id // 65536 AS bucket,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_containers,
       CAST(SUM(CASE WHEN n < {ROARING_BREAK_EVEN} THEN 1 ELSE 0 END)
            AS BIGINT) AS array_containers,
       CAST(SUM(CASE WHEN n < {ROARING_BREAK_EVEN} THEN 0 ELSE 1 END)
            AS BIGINT) AS bitmap_containers,
       CAST(SUM(CASE WHEN n < {ROARING_BREAK_EVEN} THEN 2 * n
                     ELSE {ROARING_BITMAP_BYTES} END)
            + {ROARING_HEADER_BYTES} * COUNT(*) AS BIGINT) AS total_bytes
FROM b GROUP BY event_type
"""


# --------------------------------------------------------------------------
# posting_list_cost
# --------------------------------------------------------------------------


def _varint_bytes(v: np.ndarray) -> np.ndarray:
    nb = np.ones(len(v), dtype=np.int64)
    w = v >> 7
    while (m := w > 0).any():
        nb[m] += 1
        w = w >> 7
    return nb


def q_posting_list_cost(sf_dir: str, n_parts: int | None = None):
    from .agg import _key_hash

    import ray
    P = n_partitions(n_parts)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        docs: list[int] = []
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        for i, t in enumerate(batch.column("text").to_pylist()):
            for w in set((t or "").lower().split()):  # map-side dedup
                words.append(w)
                docs.append(int(ids[i]))
        t = pa.table({
            "word": pa.array(words, type=pa.string()),
            "doc_id": pa.array(docs, type=pa.int64()),
        })
        part = (_key_hash(t, ["word"]) % np.uint64(P)).astype(np.int64)
        return t.append_column("part", pa.array(part, type=pa.int64()))

    def per_partition(group: pa.Table) -> pa.Table:
        w = np.asarray(group.column("word").to_pylist(), dtype=object)
        d = group.column("doc_id").to_numpy().astype(np.int64)
        order = np.lexsort((d, w))
        w, d = w[order], d[order]
        # global (word, doc) dedup across blocks
        keep = np.empty(len(w), dtype=bool)
        if len(w):
            keep[0] = True
            keep[1:] = (w[1:] != w[:-1]) | (d[1:] != d[:-1])
        w, d = w[keep], d[keep]
        new_word = np.empty(len(w), dtype=bool)
        if len(w):
            new_word[0] = True
            new_word[1:] = w[1:] != w[:-1]
        starts = np.flatnonzero(new_word)
        ends = np.append(starts[1:], len(w))
        # deltas: absolute first id + gaps within each word's sorted list
        gap = np.empty(len(d), dtype=np.int64)
        gap[0:] = d
        gap[~new_word] = d[~new_word] - d[np.flatnonzero(~new_word) - 1]
        nb = _varint_bytes(gap)
        df = ends - starts
        bytes_per_word = np.add.reduceat(nb, starts) if len(starts) \
            else np.empty(0, dtype=np.int64)
        return pa.table({
            "word": pa.array(w[starts], type=pa.string()),
            "df": pa.array(df.astype(np.int64), type=pa.int64()),
            "varint_bytes": pa.array(bytes_per_word.astype(np.int64),
                                     type=pa.int64()),
        })

    return group_map(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        "part", lambda g: per_partition(g.drop_columns(["part"])),
    )


SQL_POSTING_LIST_COST = rf"""
WITH wd AS (
  SELECT DISTINCT w.word, d.doc_id
  FROM documents d,
       LATERAL (SELECT UNNEST(regexp_extract_all(lower(d.text), '\S+'))
                AS word) w
),
seq AS (
  SELECT word, doc_id,
         doc_id - COALESCE(LAG(doc_id) OVER (PARTITION BY word
                                             ORDER BY doc_id), 0) AS dt
  FROM wd
),
per AS (
  SELECT word, CAST(CASE {_VARINT_LADDER} ELSE 10 END AS BIGINT) AS nb
  FROM seq
)
SELECT word,
       CAST(COUNT(*) AS BIGINT) AS df,
       CAST(SUM(nb) AS BIGINT) AS varint_bytes
FROM per GROUP BY word
"""


def build_queries_ext126() -> dict:
    return {
        "roaring_cost_estimate": q_roaring_cost_estimate,
        "posting_list_cost": q_posting_list_cost,
    }


def build_oracles_ext126() -> dict:
    return {
        "roaring_cost_estimate": SQL_ROARING_COST_ESTIMATE,
        "posting_list_cost": SQL_POSTING_LIST_COST,
    }
