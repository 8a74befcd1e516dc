"""Round-3 extension operators, batch 146: third-moment skewness
numerators + duplicate-group size histogram.

``balance_skewness_moments`` — per supplier nation, the EXACT third
central moment numerator of account balance cents:

    m3_num = n²·Σx³ − 3·n·Σx·Σx² + 2·(Σx)³      (= n³ · m3)

With |x| up to ~10⁶ cents, Σx³ alone nears 2^63 and the combination
far exceeds it, so the bounded per-nation partial sums (n, Σx, Σx²,
Σx³ — each still int64-safe) fold in Python big ints and the result
ships as a DECIMAL STRING (the ols/simpsons convention; DuckDB
computes in HUGEINT).  The sign of m3_num is the skewness direction —
emitted as its own int column.

``dup_group_size_histogram`` — the corpus-duplication profile: the
histogram of duplicate-group sizes over exact text fingerprints
(md5 low-64, the exact_dedup machinery): for each group size k, how
many distinct texts have exactly k copies.  (source, h) dedup → per-
fingerprint counts → bounded size histogram.  Oracle: COUNT(*) per
text, histogrammed.

Reference anchors: statistics + LLM-corpus families (SURVEY.md §2.4);
siblings: ols_price_model / simpsons_paradox_slices (big-int
decimal-string outputs), winsorized_value_stats, exact_dedup /
source_dedup_stats (fingerprint machinery).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# balance_skewness_moments
# --------------------------------------------------------------------------


def q_balance_skewness_moments(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                               columns=["s_nationkey", "s_acctbal"])

    def partials(batch: pa.Table) -> pa.Table:
        nat = pc.cast(batch.column("s_nationkey"), pa.int64())
        x = np.round(batch.column("s_acctbal").to_numpy() * 100.0).astype(
            np.int64)
        # x^3 reaches 10^18 per element, so a summed int64 column wraps
        # past ~9 rows of same-sign extremes (hit at sf1 batch sizes) —
        # carry it as floor-divmod hi/lo int64 halves; the exact total is
        # (sum_hi << 32) + sum_lo, int64-safe to ~3e10 rows per group
        x3 = x * x * x
        hi, lo = np.divmod(x3, np.int64(1) << 32)
        return pa.table({
            "nation": nat,
            "one": pa.array(np.ones(len(x), dtype=np.int64)),
            "sx": pa.array(x, type=pa.int64()),
            "sx2": pa.array(x * x, type=pa.int64()),
            "sx3h": pa.array(hi, type=pa.int64()),
            "sx3l": pa.array(lo, type=pa.int64()),
        })

    agg = grouped_aggregate(
        ds.map_batches(partials, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["nation"],
        [("sum", "one", "n"), ("sum", "sx", "sx"), ("sum", "sx2", "sx2"),
         ("sum", "sx3h", "sx3h"), ("sum", "sx3l", "sx3l")],
    ).to_pandas()  # bounded: one row per nation

    nations, ns, m3s, signs = [], [], [], []
    for r in agg.itertuples():
        n, sx, sx2 = int(r.n), int(r.sx), int(r.sx2)
        sx3 = (int(r.sx3h) << 32) + int(r.sx3l)
        m3 = n * n * sx3 - 3 * n * sx * sx2 + 2 * sx ** 3  # big int
        nations.append(int(r.nation))
        ns.append(n)
        m3s.append(str(m3))
        signs.append((m3 > 0) - (m3 < 0))
    return ray.data.from_arrow(pa.table({
        "nation": pa.array(nations, type=pa.int64()),
        "n": pa.array(ns, type=pa.int64()),
        "m3_num": pa.array(m3s, type=pa.string()),
        "m3_sign": pa.array(signs, type=pa.int64()),
    }))


SQL_BALANCE_SKEWNESS_MOMENTS = """
WITH base AS (
  SELECT CAST(s_nationkey AS BIGINT) AS nation,
         CAST(ROUND(s_acctbal * 100) AS BIGINT) AS x
  FROM supplier
), g AS (
  SELECT nation,
         CAST(COUNT(*) AS BIGINT) AS n,
         SUM(CAST(x AS HUGEINT)) AS sx,
         SUM(CAST(x AS HUGEINT) * x) AS sx2,
         SUM(CAST(x AS HUGEINT) * x * x) AS sx3
  FROM base GROUP BY nation
)
SELECT nation, n,
       CAST(CAST(n AS HUGEINT) * n * sx3
            - 3 * CAST(n AS HUGEINT) * sx * sx2
            + 2 * sx * sx * sx AS VARCHAR) AS m3_num,
       CAST(SIGN(CAST(n AS HUGEINT) * n * sx3
                 - 3 * CAST(n AS HUGEINT) * sx * sx2
                 + 2 * sx * sx * sx) AS BIGINT) AS m3_sign
FROM g
"""


# --------------------------------------------------------------------------
# dup_group_size_histogram
# --------------------------------------------------------------------------


def q_dup_group_size_histogram(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def fingerprint(batch: pa.Table) -> pa.Table:
        hs = np.array(
            [int.from_bytes(hashlib.md5((t or "").encode()).digest()[8:],
                            "little") - (1 << 63)
             for t in batch.column("text").to_pylist()], dtype=np.int64)
        t = pa.table({"h": pa.array(hs, type=pa.int64())})
        out = t.group_by(["h"]).aggregate([("h", "count")])
        return pa.table({
            "h": out.column("h"),
            "n": pc.cast(out.column("h_count"), pa.int64()),
        })

    per_fp = grouped_aggregate(
        ds.map_batches(fingerprint, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["h"], [("sum", "n", "n")],
    )

    def hist(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.int64)
        t = pa.table({"group_size": pa.array(n, type=pa.int64())})
        out = t.group_by(["group_size"]).aggregate([("group_size", "count")])
        return pa.table({
            "group_size": out.column("group_size"),
            "n_groups": pc.cast(out.column("group_size_count"), pa.int64()),
        })

    return grouped_aggregate(
        per_fp.map_batches(hist, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["group_size"], [("sum", "n_groups", "n_groups")],
    )


SQL_DUP_GROUP_SIZE_HISTOGRAM = """
WITH g AS (
  SELECT text, CAST(COUNT(*) AS BIGINT) AS k FROM documents GROUP BY text
)
SELECT k AS group_size, CAST(COUNT(*) AS BIGINT) AS n_groups
FROM g GROUP BY k
"""


def build_queries_ext146() -> dict:
    return {
        "balance_skewness_moments": q_balance_skewness_moments,
        "dup_group_size_histogram": q_dup_group_size_histogram,
    }


def build_oracles_ext146() -> dict:
    return {
        "balance_skewness_moments": SQL_BALANCE_SKEWNESS_MOMENTS,
        "dup_group_size_histogram": SQL_DUP_GROUP_SIZE_HISTOGRAM,
    }
