"""Round-3 extension operators, batch 72: audience overlap and
probabilistic-filter auditing.

``audience_overlap_matrix`` — the audience co-membership matrix: for
every ordered pair of event types, how many users did both, and the
Jaccard overlap as an exact integer rational.  Built WITHOUT a
pairwise join: each user's type set compresses to a bitmask (the
ext70 dedup + sum-of-distinct-bits fold), the bounded mask histogram
broadcasts, and every pair statistic is a driver fold over at most
2^|types| rows.

``bloom_fp_audit`` — the engine auditing its own probabilistic
structure: the EXACT false-positive count of the bloom semi-join
filter (pipelines/bloom.py) at a deliberately small bit budget.
The two splitmix probe positions are replayed in HUGEINT SQL, the
"bit is set" relation becomes a semi-join against the distinct
positions the build side sets, and the audit reports
(n_orders, n_with_lineitems, n_bloom_pass, n_false_pos) — supersets
only (no false negatives) falls out as n_pass >= n_with.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DAY_US = 86_400_000_000
AUDIT_M_BITS = 4096  # deliberately small so false positives are non-trivial
GOLD_A_INT = 0x9E3779B97F4A7C15
GOLD_B_INT = 0xC2B2AE3D27D4EB4F
TWO64 = 1 << 64


def q_audience_overlap_matrix(sf_dir: str):
    from .agg import distinct_values, grouped_aggregate

    import ray
    # distributed distinct — never a driver column scan of the fact table
    types = distinct_values(f"{sf_dir}/events.parquet", "event_type")
    bit_of = {t: i for i, t in enumerate(types)}

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        bits = np.array([1 << bit_of[t] for t in
                         batch.column("event_type").to_pylist()],
                        dtype=np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "mask": pa.array(bits, type=pa.int64()),
        })

    dedup = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id", "event_type"])
        .map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "mask"],
        [("count", None, "_n")],
    )
    per_user = grouped_aggregate(
        dedup.select_columns(["user_id", "mask"]),
        ["user_id"],
        [("sum", "mask", "mask")],  # distinct single-bit rows -> OR == sum
    )
    hist = grouped_aggregate(
        per_user.select_columns(["mask"]),
        ["mask"], [("count", None, "n")],
    ).to_pandas()  # bounded: <= 2^|types| rows

    import pandas as pd

    masks = hist["mask"].to_numpy().astype(np.int64)
    counts = hist["n"].to_numpy().astype(np.int64)
    rows = []
    for a in types:
        for b in types:
            ba, bb = 1 << bit_of[a], 1 << bit_of[b]
            n_a = int(counts[(masks & ba) != 0].sum())
            n_b = int(counts[(masks & bb) != 0].sum())
            n_both = int(counts[((masks & ba) != 0)
                                & ((masks & bb) != 0)].sum())
            rows.append({
                "type_a": a, "type_b": b,
                "n_a": n_a, "n_b": n_b, "n_both": n_both,
                "jaccard_num": n_both,
                "jaccard_den": n_a + n_b - n_both,
            })
    out = pd.DataFrame(rows)
    for c in ("n_a", "n_b", "n_both", "jaccard_num", "jaccard_den"):
        out[c] = out[c].astype("int64")
    return out


SQL_AUDIENCE_OVERLAP_MATRIX = """
WITH ut AS (
  SELECT DISTINCT user_id, event_type FROM events
),
types AS (SELECT DISTINCT event_type FROM events),
pairs AS (SELECT a.event_type AS type_a, b.event_type AS type_b
          FROM types a, types b),
stats AS (
  SELECT p.type_a, p.type_b,
         (SELECT COUNT(*) FROM ut WHERE event_type = p.type_a) AS n_a,
         (SELECT COUNT(*) FROM ut WHERE event_type = p.type_b) AS n_b,
         (SELECT COUNT(*) FROM ut x JOIN ut y ON x.user_id = y.user_id
          WHERE x.event_type = p.type_a AND y.event_type = p.type_b)
           AS n_both
  FROM pairs p
)
SELECT type_a, type_b,
       CAST(n_a AS BIGINT) AS n_a,
       CAST(n_b AS BIGINT) AS n_b,
       CAST(n_both AS BIGINT) AS n_both,
       CAST(n_both AS BIGINT) AS jaccard_num,
       CAST(n_a + n_b - n_both AS BIGINT) AS jaccard_den
FROM stats
"""


def q_bloom_fp_audit(sf_dir: str):
    from .agg import grouped_aggregate
    from .bloom import bloom_contains, build_bloom

    import ray

    # build over DISTINCT lineitem orderkeys at the audit's small bit budget
    def okeys(batch: pa.Table) -> pa.Table:
        k = np.unique(batch.column("l_orderkey").to_numpy().astype(np.int64))
        return pa.table({"k": pa.array(k, type=pa.int64())})

    build_ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    ).map_batches(okeys, batch_format="pyarrow", zero_copy_batch=True)
    bits = build_bloom(build_ds, ["k"], AUDIT_M_BITS)
    bits_ref = ray.put(bits)

    def probe(batch: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        hit = bloom_contains(b, k)
        return pa.table({
            "g": pa.array([0], type=pa.int64()),
            "n_orders": pa.array([len(k)], type=pa.int64()),
            "n_bloom_pass": pa.array([int(hit.sum())], type=pa.int64()),
        })

    passes = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey"])
        .map_batches(probe, batch_format="pyarrow", zero_copy_batch=True),
        ["g"],
        [("sum", "n_orders", "n_orders"),
         ("sum", "n_bloom_pass", "n_bloom_pass")],
    ).to_pandas()

    # exact truth: distinct lineitem orderkeys (referential: all are
    # orders) — per-block uniques can overlap across blocks, so the global
    # distinct goes through the int-key hash exchange
    n_with_exact = grouped_aggregate(
        build_ds, ["k"], [("count", None, "_n")],
    ).count()

    import pandas as pd

    n_orders = int(passes.iloc[0]["n_orders"])
    n_pass = int(passes.iloc[0]["n_bloom_pass"])
    return pd.DataFrame({
        "n_orders": [np.int64(n_orders)],
        "n_with_lineitems": [np.int64(n_with_exact)],
        "n_bloom_pass": [np.int64(n_pass)],
        "n_false_pos": [np.int64(n_pass - n_with_exact)],
        "m_bits": [np.int64(AUDIT_M_BITS)],
    })


def _sql_bloom_fp_audit() -> str:
    m = AUDIT_M_BITS
    mask = m - 1
    h1 = (f"(((CAST(k AS HUGEINT) * {GOLD_A_INT}) % {TWO64}) // {1 << 32})"
          f" & {mask}")
    h2 = (f"((((CAST(k AS HUGEINT) * {GOLD_B_INT}) % {TWO64}) // {1 << 32})"
          f" | 1) & {mask}")
    return f"""
WITH build AS (
  SELECT DISTINCT l_orderkey AS k FROM lineitem
),
setpos AS (
  SELECT DISTINCT p FROM (
    SELECT {h1} AS p FROM build
    UNION ALL
    SELECT (({h1}) + ({h2})) & {mask} AS p FROM build
  )
),
probe AS (
  SELECT o_orderkey AS k FROM orders
),
hits AS (
  SELECT k,
         ({h1}) IN (SELECT p FROM setpos)
         AND ((({h1}) + ({h2})) & {mask}) IN (SELECT p FROM setpos) AS hit
  FROM probe
)
SELECT CAST((SELECT COUNT(*) FROM probe) AS BIGINT) AS n_orders,
       CAST((SELECT COUNT(*) FROM build) AS BIGINT) AS n_with_lineitems,
       CAST((SELECT COUNT(*) FROM hits WHERE hit) AS BIGINT) AS n_bloom_pass,
       CAST((SELECT COUNT(*) FROM hits WHERE hit) -
            (SELECT COUNT(*) FROM build) AS BIGINT) AS n_false_pos,
       CAST({m} AS BIGINT) AS m_bits
"""


def build_queries_ext72() -> dict:
    return {
        "audience_overlap_matrix": q_audience_overlap_matrix,
        "bloom_fp_audit": q_bloom_fp_audit,
    }


def build_oracles_ext72() -> dict:
    return {
        "audience_overlap_matrix": SQL_AUDIENCE_OVERLAP_MATRIX,
        "bloom_fp_audit": _sql_bloom_fp_audit(),
    }
