"""Round-3 extension operators, batch 164: minimal half-revenue item
counts.

``half_revenue_item_count`` — per order, the MINIMUM number of
lineitems whose extendedprice (exact cents) reaches at least half the
order total.  Greedy-by-descending-price is provably optimal here: a
size-k subset's sum is bounded by the k largest items' sum, so the
threshold is reachable at size k iff the top-k prefix reaches it —
the "min-count subset to threshold" problem collapses to one sorted
cumsum (unlike general subset-sum).  The ½ test is kept integral as
``2·prefix ≥ total`` (no ceil division anywhere).  Distributed shape:
co-partition on the order key through one hash exchange; inside each
partition rows lexsort to (order, −cents) and EVERY order resolves
simultaneously with segment cumsums + ``reduceat`` folds (the
guarded_sequence_match machinery) — no per-order Python loop.

Reference anchors: relational family (SURVEY.md §2.4); sibling:
guarded_sequence_match (segment reduceat machinery).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import hash_exchange


# --------------------------------------------------------------------------
# half_revenue_item_count
# --------------------------------------------------------------------------


def q_half_revenue_item_count(sf_dir: str, n_parts: int | None = None):
    import ray

    def prep(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        cents = np.round(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "okey": pa.array(key, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_part(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        cents = group.column("cents").to_numpy().astype(np.int64)
        order = np.lexsort((-cents, okey))
        okey, cents = okey[order], cents[order]
        n = len(okey)
        seg_mask = np.empty(n, dtype=bool)
        seg_mask[0] = True
        np.not_equal(okey[1:], okey[:-1], out=seg_mask[1:])
        seg_start_idx = np.flatnonzero(seg_mask)
        seg_len = np.diff(np.append(seg_start_idx, n)).astype(np.int64)
        seg_start = np.repeat(seg_start_idx, seg_len)
        idx = np.arange(n, dtype=np.int64)
        rn = idx - seg_start + 1
        csum_all = np.cumsum(cents)
        base = np.repeat(np.r_[0, csum_all[seg_start_idx[1:] - 1]], seg_len)
        prefix = csum_all - base
        totals = np.repeat(np.add.reduceat(cents, seg_start_idx), seg_len)
        qual = 2 * prefix >= totals
        rn_or_big = np.where(qual, rn, np.int64(1) << 62)
        min_k = np.minimum.reduceat(rn_or_big, seg_start_idx)
        return pa.table({
            "o_orderkey": pa.array(okey[seg_start_idx], type=pa.int64()),
            "n_items": pa.array(seg_len, type=pa.int64()),
            "min_items_half": pa.array(min_k, type=pa.int64()),
        })

    return hash_exchange(ds, "okey", per_part, n_parts)


SQL_HALF_REVENUE_ITEM_COUNT = """
WITH li AS MATERIALIZED (
  SELECT l_orderkey,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS c
  FROM lineitem
), tot AS (
  SELECT l_orderkey, SUM(c) AS total, COUNT(*) AS n FROM li GROUP BY 1
), ranked AS (
  SELECT l_orderkey, c,
         ROW_NUMBER() OVER (PARTITION BY l_orderkey ORDER BY c DESC) AS rn,
         SUM(c) OVER (PARTITION BY l_orderkey ORDER BY c DESC
                      ROWS UNBOUNDED PRECEDING) AS csum
  FROM li
)
SELECT t.l_orderkey AS o_orderkey,
       CAST(t.n AS BIGINT) AS n_items,
       CAST(MIN(r.rn) AS BIGINT) AS min_items_half
FROM tot t JOIN ranked r
  ON r.l_orderkey = t.l_orderkey AND 2 * r.csum >= t.total
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext164():
    return {
        "half_revenue_item_count": q_half_revenue_item_count,
    }


def build_oracles_ext164():
    return {
        "half_revenue_item_count": SQL_HALF_REVENUE_ITEM_COUNT,
    }
