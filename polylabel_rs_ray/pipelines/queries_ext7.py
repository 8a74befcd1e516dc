"""Round-2 extension operators, batch 8: sampling and sketches.

* ``weighted_sample`` — deterministic distributed weighted sampling
  without replacement (A-Res / Efraimidis-Spirakis): priority
  ln(u)/w with u derived from md5(key) — reproducible across runs and
  engines — selected via per-block partial top-k + one tiny final
  top-k (k x blocks rows ever shuffle).
* ``value_quantile_sketch`` — mergeable quantile sketch: each block
  contributes its sorted values compressed to <= B weighted
  representatives (rank error <= n_block/B per block, additive ->
  total rank error <= N/B); the representative union is constant-size
  per block, merged once.  Rows-only (approximate by construction);
  pytest pins the rank-error bound against exact quantiles."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..stages.util import group_map

WS_K = 100  # weighted-sample size
SKETCH_B = 512  # representatives per block
SKETCH_NBLK = 64  # deterministic blocks: blk = event_id % SKETCH_NBLK
SKETCH_QS = (0.01, 0.25, 0.5, 0.75, 0.99)


# --------------------------------------------------------------------------
# deterministic weighted sampling (A-Res)
# --------------------------------------------------------------------------


def _md5_u(keys: np.ndarray) -> np.ndarray:
    """u in (0,1) from the first 15 hex chars of md5(str(key)) — the same
    60-bit integer the oracle parses with CAST('0x'||substr(md5(k),1,15))."""
    h = np.fromiter(
        (int(hashlib.md5(str(k).encode()).hexdigest()[:15], 16) for k in keys),
        dtype=np.int64,
        count=len(keys),
    )
    return (h.astype(np.float64) + 1.0) / float(1 << 60)


def q_weighted_sample(sf_dir: str):
    """Sample WS_K orders with probability proportional to price, without
    replacement, deterministically: priority = ln(u)/w (larger is
    better), u reproducible from md5 — both sides compute the identical
    double expression.  Each block forwards only its top-k priorities;
    the final reduce sees k x blocks rows."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        key = batch.column("o_orderkey").to_numpy().astype(np.int64)
        cents = np.rint(batch.column("o_totalprice").to_numpy() * 100.0).astype(
            np.int64
        )
        u = _md5_u(key)
        prio = np.log(u) / cents.astype(np.float64)
        if len(key) > WS_K:
            keep = np.argpartition(-prio, WS_K)[:WS_K]
            key, cents, prio = key[keep], cents[keep], prio[keep]
        return pa.table({
            "o_orderkey": pa.array(key, type=pa.int64()),
            "total_cents": pa.array(cents, type=pa.int64()),
            "prio": pa.array(prio, type=pa.float64()),
        })

    def final_topk(batch: pa.Table) -> pa.Table:
        prio = batch.column("prio").to_numpy()
        key = batch.column("o_orderkey").to_numpy().astype(np.int64)
        order = np.lexsort((key, -prio))[:WS_K]
        return pa.table({
            "o_orderkey": pa.array(key[order], type=pa.int64()),
            "total_cents": batch.column("total_cents").take(pa.array(order)),
        })

    return (
        ds.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow", zero_copy_batch=True)
    )


SQL_WEIGHTED_SAMPLE = f"""
    WITH w AS (
        SELECT o_orderkey,
               CAST(ROUND(o_totalprice * 100) AS BIGINT) AS total_cents,
               (CAST(CAST(('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 15))
                     AS BIGINT) AS DOUBLE) + 1.0) / 1152921504606846976.0 AS u
        FROM orders
    )
    SELECT o_orderkey, total_cents
    FROM w
    QUALIFY ROW_NUMBER() OVER (
        ORDER BY ln(u) / CAST(total_cents AS DOUBLE) DESC, o_orderkey
    ) <= {WS_K}
"""


# --------------------------------------------------------------------------
# mergeable quantile sketch
# --------------------------------------------------------------------------


def sketch_block(values: np.ndarray, B: int = SKETCH_B):
    """Compress one block's values to <= B weighted representatives:
    sort, cut into ceil(n/B)-sized runs, represent each run by its LAST
    (largest) element with the run length as weight.  The weighted rank
    of any value is overestimated by < stride = ceil(n/B), i.e. rank
    error <= n/B per block; errors are additive across merged blocks."""
    n = len(values)
    if n == 0:
        return values.astype(np.float64), np.array([], dtype=np.int64)
    s = np.sort(values)
    stride = -(-n // B)
    ends = np.minimum(np.arange(stride - 1, n + stride - 1, stride), n - 1)
    ends = np.unique(ends)
    w = np.diff(np.r_[-1, ends])
    return s[ends].astype(np.float64), w.astype(np.int64)


def q_value_quantile_sketch(sf_dir: str):
    """Approximate quantiles of the event value column at bounded memory:
    every block ships <= SKETCH_B weighted points (constant size however
    large the block), one concat-merge resolves the quantile set with
    total rank error <= N/SKETCH_NBLK/SKETCH_B per block (additive).

    Blocks are DETERMINISTIC — ``blk = event_id % SKETCH_NBLK`` — so the
    sketch is partition-layout invariant and its every counter (and thus
    every estimate) is replayed value-exactly by the SQL oracle (the
    cmsketch discipline; this moved the query out of the rows-only set).
    The price is one hash exchange of the (blk, cents) pairs instead of
    the layout-dependent zero-shuffle form; at deployment SKETCH_NBLK
    scales with the corpus so a block still sorts in one task."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value"])

    def key(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        cents = np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "blk": pa.array(eid % SKETCH_NBLK, type=pa.int64()),
            "v": pa.array(cents, type=pa.int64()),
        })

    def sketch_group(group: pa.Table) -> pa.Table:
        reps, w = sketch_block(group.column("v").to_numpy().astype(np.int64))
        return pa.table({
            "v": pa.array(reps, type=pa.float64()),
            "w": pa.array(w, type=pa.int64()),
        })

    merged = (
        group_map(
            ds.map_batches(key, batch_format="pyarrow", zero_copy_batch=True),
            "blk", sketch_group,
        )
        .to_pandas()  # <= SKETCH_NBLK x SKETCH_B rows — bounded
    )
    v = merged["v"].to_numpy()
    w = merged["w"].to_numpy()
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w)
    N = int(cum[-1]) if len(cum) else 0
    qs = np.asarray(SKETCH_QS)
    idx = np.searchsorted(cum, np.maximum(1, np.ceil(qs * N)))
    return pa.table({
        "q": pa.array(qs, type=pa.float64()),
        "est_cents": pa.array(v[idx].astype(np.int64), type=pa.int64()),
        "n_total": pa.array(np.full(len(qs), N), type=pa.int64()),
    })


SQL_VALUE_QUANTILE_SKETCH = f"""
WITH cents AS (
  SELECT event_id % {SKETCH_NBLK} AS blk,
         CAST(ROUND(value * 100) AS BIGINT) AS v
  FROM events
), ranked AS (
  SELECT blk, v,
         ROW_NUMBER() OVER (PARTITION BY blk ORDER BY v) - 1 AS rn,
         COUNT(*) OVER (PARTITION BY blk) AS n
  FROM cents
), strided AS (
  SELECT blk, v, rn, n,
         CAST(CEIL(CAST(n AS DOUBLE) / {SKETCH_B}) AS BIGINT) AS stride
  FROM ranked
), sel AS (
  SELECT blk, v, rn FROM strided
  WHERE (rn + 1) % stride = 0 OR rn = n - 1
), reps AS (
  SELECT blk, v,
         rn - COALESCE(LAG(rn) OVER (PARTITION BY blk ORDER BY rn), -1) AS w
  FROM sel
), agg AS (
  SELECT v, CAST(SUM(w) AS BIGINT) AS w FROM reps GROUP BY v
), c AS (
  SELECT v, SUM(w) OVER (ORDER BY v) AS cum FROM agg
), tot AS (
  SELECT CAST(SUM(w) AS BIGINT) AS n FROM reps
)
SELECT q,
       (SELECT CAST(MIN(v) AS BIGINT) FROM c
        WHERE cum >= GREATEST(1.0, CEIL(q * (SELECT n FROM tot))))
           AS est_cents,
       (SELECT n FROM tot) AS n_total
FROM (SELECT UNNEST({list(SKETCH_QS)}) AS q)
"""


def build_queries_ext7() -> dict:
    return {
        "weighted_sample": q_weighted_sample,
        "value_quantile_sketch": q_value_quantile_sketch,
    }


def build_oracles_ext7() -> dict:
    # value_quantile_sketch is approximate vs TRUE quantiles, but fully
    # deterministic given its blocks — the SQL replays the sketch itself
    # (select reps, weight, merge, rank-select) value-exactly
    return {
        "weighted_sample": SQL_WEIGHTED_SAMPLE,
        "value_quantile_sketch": SQL_VALUE_QUANTILE_SKETCH,
    }
