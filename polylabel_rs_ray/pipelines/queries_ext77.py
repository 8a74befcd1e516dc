"""Round-3 extension operators, batch 77: inequality self-join and
l-diversity privacy audit.

``order_burst_pairs`` — the banded theta self-join: pairs of orders
by the SAME customer placed within 7 days of each other (burst
purchasing).  Equality on custkey co-partitions; the date band
resolves per customer with a sorted two-pointer sweep — each order
counts how many later orders fall inside its band, so the pair count
is exact with no quadratic blowup (window size bounds the scan).
Output: per customer, the number of in-band ordered pairs and the
tightest gap.

``l_diversity_audit`` — the privacy audit beyond k-anonymity: within
each quasi-identifier class (lang x n_chars bucket), how many
DISTINCT values of the sensitive attribute (source) appear — classes
with l = 1 are attribute-disclosure risks even when k is large.
Bounded QI domain: per-class (distinct-source, size) fold over a
(class, source) dedup exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

DAY_US = 86_400_000_000
BURST_WINDOW_US = 7 * DAY_US
QI_CHAR_BUCKET = 100


def q_order_burst_pairs(sf_dir: str, n_parts: int | None = None):
    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "c_custkey": pa.array(ck, type=pa.int64()),
            "t": pc.cast(batch.column("o_orderdate"), pa.int64()),
            "okey": pc.cast(batch.column("o_orderkey"), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        ck = group.column("c_custkey").to_numpy().astype(np.int64)
        t = group.column("t").to_numpy().astype(np.int64)
        okey = group.column("okey").to_numpy().astype(np.int64)
        order = np.lexsort((okey, t, ck))
        ck, t = ck[order], t[order]
        starts = np.flatnonzero(np.concatenate([[True], ck[1:] != ck[:-1]]))
        ends = np.concatenate([starts[1:], [len(ck)]])
        users, pairs, mingap = [], [], []
        for s, e in zip(starts, ends):
            tt = t[s:e]
            # for each order: STRICTLY-later orders within the band
            # (searchsorted on the sorted per-user times — O(n log n), no
            # quadratic blowup; ties are not pairs, matching b.t > a.t)
            hi = np.searchsorted(tt, tt + BURST_WINDOW_US, side="right")
            lo = np.searchsorted(tt, tt, side="right")
            n_pairs = int((hi - lo).sum())
            if n_pairs > 0:
                users.append(ck[s])
                pairs.append(n_pairs)
                gaps = np.diff(tt)
                gaps = gaps[(gaps > 0) & (gaps <= BURST_WINDOW_US)]
                mingap.append(int(gaps.min()))
        return pa.table({
            "c_custkey": pa.array(np.array(users, dtype=np.int64),
                                  type=pa.int64()),
            "n_burst_pairs": pa.array(np.array(pairs, dtype=np.int64),
                                      type=pa.int64()),
            "min_gap_us": pa.array(np.array(mingap, dtype=np.int64),
                                   type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    return hash_exchange(ds, "c_custkey", per_partition, n_parts)


SQL_ORDER_BURST_PAIRS = f"""
WITH o AS (
  SELECT o_custkey, CAST(epoch_us(o_orderdate) AS BIGINT) AS t
  FROM orders
),
pairs AS (
  SELECT a.o_custkey,
         b.t - a.t AS gap
  FROM o a JOIN o b
    ON a.o_custkey = b.o_custkey
   AND b.t > a.t AND b.t - a.t <= {BURST_WINDOW_US}
)
SELECT o_custkey AS c_custkey,
       CAST(COUNT(*) AS BIGINT) AS n_burst_pairs,
       CAST(MIN(gap) AS BIGINT) AS min_gap_us
FROM pairs GROUP BY o_custkey
"""


def q_l_diversity_audit(sf_dir: str):
    from .agg import distinct_values, grouped_aggregate

    import ray

    # bounded QI domain: lang x char-bucket; sensitive attribute: source.
    # The domains are bounded but the column is not — discover them with
    # the distributed distinct, never a driver column scan.
    langs = distinct_values(f"{sf_dir}/documents.parquet", "lang")
    sources = distinct_values(f"{sf_dir}/documents.parquet", "source")
    lang_id = {v: i for i, v in enumerate(langs)}
    src_id = {v: i for i, v in enumerate(sources)}
    n_src = len(sources)

    def keyed(batch: pa.Table) -> pa.Table:
        li = np.array([lang_id[v] for v in batch.column("lang").to_pylist()],
                      dtype=np.int64)
        si = np.array([src_id[v] for v in
                       batch.column("source").to_pylist()], dtype=np.int64)
        bucket = (batch.column("n_chars").to_numpy().astype(np.int64)
                  // QI_CHAR_BUCKET)
        cls = li * 1_000_000 + bucket  # bucket << 1e6 on this corpus
        return pa.table({
            "cls_src": pa.array(cls * n_src + si, type=pa.int64()),
            "cls": pa.array(cls, type=pa.int64()),
        })

    # distinct (class, source) via the int hash exchange, then per-class
    # distinct-source counts; class sizes fold separately
    dedup = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["lang", "source", "n_chars"])
        .map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["cls_src", "cls"],
        [("count", None, "class_size_part")],
    )
    per_class = grouped_aggregate(
        dedup,
        ["cls"],
        [("count", None, "l_distinct_sources"),
         ("sum", "class_size_part", "class_size")],
    ).to_pandas()  # bounded: QI classes

    per_class["lang"] = [langs[int(c) // 1_000_000]
                         for c in per_class["cls"]]
    per_class["char_bucket"] = (per_class["cls"] % 1_000_000).astype("int64")
    per_class["l_distinct_sources"] = \
        per_class["l_distinct_sources"].astype("int64")
    per_class["class_size"] = per_class["class_size"].astype("int64")
    per_class["at_risk"] = per_class["l_distinct_sources"] == 1
    return per_class[["lang", "char_bucket", "class_size",
                      "l_distinct_sources", "at_risk"]].reset_index(drop=True)


SQL_L_DIVERSITY_AUDIT = f"""
SELECT lang,
       CAST(n_chars // {QI_CHAR_BUCKET} AS BIGINT) AS char_bucket,
       CAST(COUNT(*) AS BIGINT) AS class_size,
       CAST(COUNT(DISTINCT source) AS BIGINT) AS l_distinct_sources,
       COUNT(DISTINCT source) = 1 AS at_risk
FROM documents
GROUP BY lang, char_bucket
"""


def build_queries_ext77() -> dict:
    return {
        "order_burst_pairs": q_order_burst_pairs,
        "l_diversity_audit": q_l_diversity_audit,
    }


def build_oracles_ext77() -> dict:
    return {
        "order_burst_pairs": SQL_ORDER_BURST_PAIRS,
        "l_diversity_audit": SQL_L_DIVERSITY_AUDIT,
    }
