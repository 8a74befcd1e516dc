"""Round-3 extension operators, batch 98: winsorized statistics and
blocking efficiency.

``winsorized_value_stats`` — the robust mean the outlier ops lead to:
per event type, clamp values below the p5 / above the p95 ORDER
STATISTICS (deterministic: k-th smallest with k = ceil(q·n), realized
values) and report the exact winsorized integer-cent sum.  The cents
domain is bounded, so each type's histogram folds exactly — the same
histogram discipline as value_mad, different estimator.

``blocking_efficiency`` — the entity-resolution planning metric: how
many candidate pairs does (lang, char-bucket) blocking leave relative
to the all-pairs quadratic?  Exact integers: total C(n,2), blocked
Σ C(n_b, 2) over the bounded block histogram, plus block count and
the largest block (the skew that dominates verify cost).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WINSOR_LO_NUM, WINSOR_LO_DEN = 1, 20   # p5
WINSOR_HI_NUM, WINSOR_HI_DEN = 19, 20  # p95
BLOCK_CHAR_BUCKET = 100


def q_winsorized_value_stats(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def hist_stage(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)),
                        pa.int64())
        t = pa.table({
            "event_type": batch.column("event_type"),
            "cents": cents,
        })
        out = t.group_by(["event_type", "cents"]).aggregate(
            [("cents", "count")])
        return pa.table({
            "event_type": out.column("event_type"),
            "cents": out.column("cents"),
            "n": pc.cast(out.column("cents_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["event_type", "value"])
        .map_batches(hist_stage, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["event_type", "cents"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: type x cents domain

    import pandas as pd

    rows = []
    for typ, g in hist.groupby("event_type"):
        g = g.sort_values("cents")
        v = g["cents"].to_numpy().astype(np.int64)
        c = g["n"].to_numpy().astype(np.int64)
        n = int(c.sum())
        cum = np.cumsum(c)
        # k-th smallest, k = ceil(q*n) (1-based)
        k_lo = -(-WINSOR_LO_NUM * n // WINSOR_LO_DEN)
        k_hi = -(-WINSOR_HI_NUM * n // WINSOR_HI_DEN)
        lo_cut = int(v[np.searchsorted(cum, k_lo)])
        hi_cut = int(v[np.searchsorted(cum, k_hi)])
        clamped = np.clip(v, lo_cut, hi_cut)
        wsum = int((clamped * c).sum())
        rows.append({
            "event_type": typ, "n_events": n,
            "lo_cut_cents": lo_cut, "hi_cut_cents": hi_cut,
            "winsorized_sum_cents": wsum,
        })
    out = pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)
    for col in ("n_events", "lo_cut_cents", "hi_cut_cents",
                "winsorized_sum_cents"):
        out[col] = out[col].astype("int64")
    return out


SQL_WINSORIZED_VALUE_STATS = f"""
WITH v AS (
  SELECT event_type,
         CAST(ROUND(value * 100) AS BIGINT) AS cents,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY CAST(ROUND(value * 100) AS BIGINT))
           AS rk,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM events
),
cuts AS (
  SELECT event_type, ANY_VALUE(n) AS n,
         MIN(CASE WHEN rk = CAST(CEIL({WINSOR_LO_NUM} * n * 1.0
                                      / {WINSOR_LO_DEN}) AS BIGINT)
                  THEN cents END) AS lo_cut,
         MIN(CASE WHEN rk = CAST(CEIL({WINSOR_HI_NUM} * n * 1.0
                                      / {WINSOR_HI_DEN}) AS BIGINT)
                  THEN cents END) AS hi_cut
  FROM v GROUP BY event_type
)
SELECT v.event_type,
       CAST(ANY_VALUE(c.n) AS BIGINT) AS n_events,
       CAST(ANY_VALUE(c.lo_cut) AS BIGINT) AS lo_cut_cents,
       CAST(ANY_VALUE(c.hi_cut) AS BIGINT) AS hi_cut_cents,
       CAST(SUM(LEAST(GREATEST(v.cents, c.lo_cut), c.hi_cut)) AS BIGINT)
         AS winsorized_sum_cents
FROM v JOIN cuts c ON v.event_type = c.event_type
GROUP BY v.event_type
"""


def q_blocking_efficiency(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        bucket = (batch.column("n_chars").to_numpy().astype(np.int64)
                  // BLOCK_CHAR_BUCKET)
        langs = batch.column("lang").to_pylist()
        key = [f"{lg}:{b}" for lg, b in zip(langs, bucket)]
        return pa.table({"blk": pa.array(key, type=pa.string())})

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["lang", "n_chars"])
        .map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["blk"], [("count", None, "n")],
    ).to_pandas()  # bounded: lang x bucket blocks

    import pandas as pd

    c = hist["n"].to_numpy().astype(np.int64)
    n = int(c.sum())
    blocked = int((c * (c - 1) // 2).sum())
    return pd.DataFrame({
        "n_docs": [np.int64(n)],
        "n_blocks": [np.int64(len(c))],
        "max_block": [np.int64(int(c.max()))],
        "blocked_pairs": [np.int64(blocked)],
        "total_pairs": [np.int64(n * (n - 1) // 2)],
    })


SQL_BLOCKING_EFFICIENCY = f"""
WITH blk AS (
  SELECT lang || ':' || CAST(n_chars // {BLOCK_CHAR_BUCKET} AS VARCHAR)
           AS b, COUNT(*) AS n
  FROM documents GROUP BY 1
)
SELECT CAST(SUM(n) AS BIGINT) AS n_docs,
       CAST(COUNT(*) AS BIGINT) AS n_blocks,
       CAST(MAX(n) AS BIGINT) AS max_block,
       CAST(SUM(n * (n - 1) // 2) AS BIGINT) AS blocked_pairs,
       CAST(SUM(n) * (SUM(n) - 1) // 2 AS BIGINT) AS total_pairs
FROM blk
"""


def build_queries_ext98() -> dict:
    return {
        "winsorized_value_stats": q_winsorized_value_stats,
        "blocking_efficiency": q_blocking_efficiency,
    }


def build_oracles_ext98() -> dict:
    return {
        "winsorized_value_stats": SQL_WINSORIZED_VALUE_STATS,
        "blocking_efficiency": SQL_BLOCKING_EFFICIENCY,
    }
