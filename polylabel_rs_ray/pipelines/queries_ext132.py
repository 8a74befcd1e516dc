"""Round-3 extension operators, batch 132: per-source duplication rates
+ QQ distance between value distributions.

``source_dedup_stats`` — the per-source corpus-duplication audit (the
"which crawl source is feeding me copies" question): per source,
document count and distinct-text count (dup rate = 1 − distinct/n as
the two exact integers).  Distinctness runs on the md5 low-64
fingerprint (the repo-wide ``md5_number_lower`` convention): per-batch
(source, h) dedup collapses map-side, one hash aggregate dedups
across blocks, a bounded per-source fold counts — the exact_dedup
discipline grouped by source.  Oracle: COUNT(DISTINCT text) (md5 is
collision-free on this deterministic corpus; the engine's distinct-on-
fingerprint equals distinct-on-text).

``value_qq_distance`` — distribution drift between event types as an
exact quantile-quantile distance: per ordered type pair (a < b), the
L1 and max distance between the types' nine deciles of cents-
quantized value, using the repo's exact discrete quantile definition
(0-based index ``(n−1)·j//10`` — the lower-median convention
generalized).  Deciles come from the bounded per-type cents
histograms (map-side combine + driver searchsorted over the cumsum);
no global sort.  Oracle: window cumsum + MIN(c) with the same index
arithmetic, self-joined over pairs.

Reference anchors: LLM-corpus quality + distribution-testing families
(SURVEY.md §2.4); siblings: exact_dedup (fingerprint distinct),
doclen_ks_test (two-sample distribution test), value_quantiles /
median_value_per_type (exact discrete quantile convention).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

QQ_DECILES = tuple(range(1, 10))


# --------------------------------------------------------------------------
# source_dedup_stats
# --------------------------------------------------------------------------


def q_source_dedup_stats(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def fingerprint(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        hs = np.array(
            [int.from_bytes(hashlib.md5((t or "").encode()).digest()[8:],
                            "little") - (1 << 63)
             for t in batch.column("text").to_pylist()], dtype=np.int64)
        t = pa.table({
            "source": pa.array(src, type=pa.string()),
            "h": pa.array(hs, type=pa.int64()),
        })
        # map-side dedup + per-batch doc counts ride along
        out = t.group_by(["source", "h"]).aggregate([("h", "count")])
        return pa.table({
            "source": out.column("source"),
            "h": out.column("h"),
            "n": pc.cast(out.column("h_count"), pa.int64()),
        })

    sh = grouped_aggregate(
        ds.map_batches(fingerprint, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["source", "h"], [("sum", "n", "n")],
    )

    def fold(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.int64)
        return pa.table({
            "source": batch.column("source"),
            "n_docs": pa.array(n, type=pa.int64()),
            "one": pa.array(np.ones(len(n), dtype=np.int64)),
        })

    return grouped_aggregate(
        sh.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True),
        ["source"],
        [("sum", "n_docs", "n_docs"), ("sum", "one", "n_distinct")],
    )


SQL_SOURCE_DEDUP_STATS = """
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT text) AS BIGINT) AS n_distinct
FROM documents GROUP BY source
"""


# --------------------------------------------------------------------------
# value_qq_distance
# --------------------------------------------------------------------------


def q_value_qq_distance(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "c": pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)),
                         pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "c"], [("count", None, "n")],
    ).to_pandas()  # bounded: types × cents domain

    deciles: dict[str, np.ndarray] = {}
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("c")
        c = g["c"].to_numpy().astype(np.int64)
        n = g["n"].to_numpy().astype(np.int64)
        cum = np.cumsum(n)
        total = int(cum[-1])
        idx = np.array([(total - 1) * j // 10 for j in QQ_DECILES],
                       dtype=np.int64)
        # first cents value whose cumulative count exceeds idx
        deciles[et] = c[np.searchsorted(cum, idx + 1)]

    types = sorted(deciles)
    ta, tb, l1, mx = [], [], [], []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            d = np.abs(deciles[types[i]] - deciles[types[j]])
            ta.append(types[i])
            tb.append(types[j])
            l1.append(int(d.sum()))
            mx.append(int(d.max()))
    return ray.data.from_arrow(pa.table({
        "type_a": pa.array(ta, type=pa.string()),
        "type_b": pa.array(tb, type=pa.string()),
        "l1_qq": pa.array(l1, type=pa.int64()),
        "max_qq": pa.array(mx, type=pa.int64()),
    }))


SQL_VALUE_QQ_DISTANCE = """
WITH g AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS c,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), tot AS (
  SELECT event_type, SUM(n) AS n FROM g GROUP BY 1
), cum AS (
  SELECT event_type, c,
         SUM(n) OVER (PARTITION BY event_type ORDER BY c) AS cum
  FROM g
), q AS (
  SELECT t.event_type, j.j, MIN(cu.c) AS qc
  FROM tot t
  CROSS JOIN (SELECT UNNEST([1,2,3,4,5,6,7,8,9]) AS j) j
  JOIN cum cu ON cu.event_type = t.event_type
             AND cu.cum >= (t.n - 1) * j.j // 10 + 1
  GROUP BY 1, 2
)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(SUM(ABS(a.qc - b.qc)) AS BIGINT) AS l1_qq,
       CAST(MAX(ABS(a.qc - b.qc)) AS BIGINT) AS max_qq
FROM q a JOIN q b ON a.j = b.j AND a.event_type < b.event_type
GROUP BY 1, 2
"""


def build_queries_ext132() -> dict:
    return {
        "source_dedup_stats": q_source_dedup_stats,
        "value_qq_distance": q_value_qq_distance,
    }


def build_oracles_ext132() -> dict:
    return {
        "source_dedup_stats": SQL_SOURCE_DEDUP_STATS,
        "value_qq_distance": SQL_VALUE_QQ_DISTANCE,
    }
