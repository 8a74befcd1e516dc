"""Round-3 extension operators, batch 95: duplicate-shipment detection
and vocabulary front-coding.

``duplicate_shipment_audit`` — the fraud/dedup screen: pairs of
lineitems with the SAME (part, supplier, quantity) shipped within 30
days of each other (orders-level totals never collide on this
synthetic data — lineitem attributes do).  Equality keys co-partition
on partkey; the date band resolves per equality group with the sorted
two-pointer — the banded-theta machinery with a composite equality
key.  Output: suspect pair count, affected parts, affected lineitems.

``vocab_front_coding`` — the storage question for sorted string
dictionaries: how many characters does front coding (sharing each
word's common prefix with its predecessor) save?  LCPs are computed
over the SORTED vocabulary; the SQL oracle reproduces them with an
unrolled prefix-equality ladder (no LCP builtin needed).  Bounded
vocabulary domain.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

DUP_WINDOW_US = 30 * 86_400_000_000  # 30 days
LCP_MAX = 16  # ladder depth; vocabulary words are short


def q_duplicate_shipment_audit(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy().astype(np.int64)
        return pa.table({
            "pk": pa.array(pk, type=pa.int64()),
            "sk": pc.cast(batch.column("l_suppkey"), pa.int64()),
            "q": pc.cast(pc.round(batch.column("l_quantity")), pa.int64()),
            "t": pc.cast(batch.column("l_shipdate"), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        ck = group.column("pk").to_numpy().astype(np.int64)
        sk = group.column("sk").to_numpy().astype(np.int64)
        qv = group.column("q").to_numpy().astype(np.int64)
        t = group.column("t").to_numpy().astype(np.int64)
        order = np.lexsort((t, qv, sk, ck))
        ck, sk, qv, t = ck[order], sk[order], qv[order], t[order]
        same_key = np.concatenate(
            [[False], (ck[1:] == ck[:-1]) & (sk[1:] == sk[:-1])
             & (qv[1:] == qv[:-1])])
        # group starts for (ck, cents) runs
        starts = np.flatnonzero(~same_key)
        ends = np.concatenate([starts[1:], [len(ck)]])
        n_pairs = 0
        cust: set = set()
        orders_involved = 0
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            tt = t[s:e]
            # index-based "later" count: equal timestamps still pair (the
            # oracle pairs on orderkey order, every unordered pair once)
            later_in_band = np.searchsorted(tt, tt + DUP_WINDOW_US,
                                            side="right") \
                - np.arange(1, len(tt) + 1)
            p = int(later_in_band.sum())
            if p > 0:
                n_pairs += p
                cust.add(int(ck[s]))
                involved = np.zeros(len(tt), dtype=bool)
                for i in range(len(tt)):
                    if later_in_band[i] > 0:
                        involved[i:i + 1 + int(later_in_band[i])] = True
                orders_involved += int(involved.sum())
        return pa.table({
            "g": pa.array([0], type=pa.int64()),
            "n_pairs": pa.array([n_pairs], type=pa.int64()),
            "n_parts_affected": pa.array([len(cust)], type=pa.int64()),
            "n_lineitems": pa.array([orders_involved], type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    return grouped_aggregate(
        hash_exchange(ds, "pk", per_partition, n_parts),
        ["g"],
        [("sum", "n_pairs", "n_pairs"),
         ("sum", "n_parts_affected", "n_parts_affected"),
         ("sum", "n_lineitems", "n_lineitems")],
    ).select_columns(["n_pairs", "n_parts_affected", "n_lineitems"])


SQL_DUPLICATE_SHIPMENT_AUDIT = f"""
WITH l AS (
  SELECT l_orderkey, l_linenumber, l_partkey, l_suppkey,
         CAST(ROUND(l_quantity) AS BIGINT) AS q,
         CAST(epoch_us(l_shipdate) AS BIGINT) AS t
  FROM lineitem
),
pairs AS (
  SELECT a.l_partkey,
         a.l_orderkey AS k1o, a.l_linenumber AS k1l,
         b.l_orderkey AS k2o, b.l_linenumber AS k2l
  FROM l a JOIN l b
    ON a.l_partkey = b.l_partkey AND a.l_suppkey = b.l_suppkey
   AND a.q = b.q
   AND (a.l_orderkey, a.l_linenumber) < (b.l_orderkey, b.l_linenumber)
   AND ABS(b.t - a.t) <= {DUP_WINDOW_US}
)
SELECT CAST((SELECT COUNT(*) FROM pairs) AS BIGINT) AS n_pairs,
       CAST((SELECT COUNT(DISTINCT l_partkey) FROM pairs) AS BIGINT)
         AS n_parts_affected,
       CAST((SELECT COUNT(*) FROM (
          SELECT k1o AS a, k1l AS b FROM pairs
          UNION SELECT k2o, k2l FROM pairs))
         AS BIGINT) AS n_lineitems
FROM (SELECT 1)
"""


def q_vocab_front_coding(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def words(batch: pa.Table) -> pa.Table:
        ws: list[str] = []
        for t in batch.column("text").to_pylist():
            ws.extend((t or "").lower().split())
        tbl = pa.table({"word": pa.array(ws, type=pa.string())})
        out = tbl.group_by(["word"]).aggregate([("word", "count")])
        return pa.table({"word": out.column("word")})

    vocab = sorted(set(
        grouped_aggregate(
            ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["text"])
            .map_batches(words, batch_format="pyarrow",
                         zero_copy_batch=True),
            ["word"], [("count", None, "_n")],
        ).to_pandas()["word"]
    ))
    total_chars = sum(len(w) for w in vocab)
    total_lcp = 0
    for a, b in zip(vocab, vocab[1:]):
        k = 0
        while k < min(len(a), len(b), LCP_MAX) and a[k] == b[k]:
            k += 1
        total_lcp += k
    import pandas as pd

    return pd.DataFrame({
        "n_words": [np.int64(len(vocab))],
        "total_chars": [np.int64(total_chars)],
        "total_lcp": [np.int64(total_lcp)],
        "coded_chars": [np.int64(total_chars - total_lcp)],
    })


def _sql_vocab_front_coding() -> str:
    ladder = " + ".join(
        f"(CASE WHEN substr(word, 1, {k}) = substr(prev, 1, {k})"
        f" AND length(word) >= {k} AND length(prev) >= {k}"
        f" THEN 1 ELSE 0 END)"
        for k in range(1, LCP_MAX + 1)
    )
    return rf"""
        WITH toks AS (
          SELECT DISTINCT w AS word
          FROM (SELECT regexp_extract_all(lower(text), '\S+') AS t
                FROM documents),
               LATERAL (SELECT unnest(t) AS w)
        ),
        seq AS (
          SELECT word, LAG(word) OVER (ORDER BY word) AS prev FROM toks
        ),
        lcp AS (
          SELECT word,
                 CASE WHEN prev IS NULL THEN 0 ELSE {ladder} END AS l
          FROM seq
        )
        SELECT CAST(COUNT(*) AS BIGINT) AS n_words,
               CAST(SUM(length(word)) AS BIGINT) AS total_chars,
               CAST(SUM(l) AS BIGINT) AS total_lcp,
               CAST(SUM(length(word)) - SUM(l) AS BIGINT) AS coded_chars
        FROM lcp
    """


def build_queries_ext95() -> dict:
    return {
        "duplicate_shipment_audit": q_duplicate_shipment_audit,
        "vocab_front_coding": q_vocab_front_coding,
    }


def build_oracles_ext95() -> dict:
    return {
        "duplicate_shipment_audit": SQL_DUPLICATE_SHIPMENT_AUDIT,
        "vocab_front_coding": _sql_vocab_front_coding(),
    }
