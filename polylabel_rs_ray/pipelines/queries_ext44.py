"""Round-3 extension operators, batch 44: association-rule mining.

``part_pair_lift`` — market-basket lift/confidence over the co-purchase
graph: for the top-20 part pairs by basket co-occurrence (SET semantics
— a basket is the DISTINCT part set of an order), report

    support counts  c_ab, c_a, c_b, N   (exact integers)
    lift       = N * c_ab / (c_a * c_b)
    confidence = c_ab / c_a             (rule a -> b, a < b)

Both ratios are ONE double division of exact int64 products, so the
oracle matches bit-for-bit.

Scale shape: one hash(orderkey) co-partition (baskets stay together;
per-basket dedupe + triu pair fan-out vectorized), the pair counts ride
the high-cardinality hash exchange, per-part basket counts are a
bounded-domain aggregate, and the top-20 fold + tiny join happen on the
driver over bounded tables (pairs folded per block, parts O(|parts|)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

TOP_PAIRS = 20


def q_part_pair_lift(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def to_parts(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "okey": pa.array(key, type=pa.int64()),
            "pkey": pc.cast(batch.column("l_partkey"), pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).map_batches(to_parts, batch_format="pyarrow", zero_copy_batch=True)
    parted = ds.materialize()  # 2 consumers below

    def basket_rows(group: pa.Table) -> pa.Table:
        """DISTINCT (order, part) rows of one partition + first-of-order
        flag (computed over the WHOLE partition — map_groups, never a
        sliced map_batches, so no order straddles a boundary)."""
        okey = group.column("okey").to_numpy().astype(np.int64)
        pkey = group.column("pkey").to_numpy().astype(np.int64)
        if len(okey) == 0:
            return pa.table({
                "okey": pa.array([], type=pa.int64()),
                "pkey": pa.array([], type=pa.int64()),
                "first": pa.array([], type=pa.int64()),
            })
        order = np.lexsort((pkey, okey))
        o, p = okey[order], pkey[order]
        keep = np.r_[True, (o[1:] != o[:-1]) | (p[1:] != p[:-1])]
        o, p = o[keep], p[keep]
        first = np.r_[True, o[1:] != o[:-1]].astype(np.int64)
        return pa.table({
            "okey": pa.array(o, type=pa.int64()),
            "pkey": pa.array(p, type=pa.int64()),
            "first": pa.array(first, type=pa.int64()),
        })

    # distinct basket rows, partitioned by order
    baskets = hash_exchange(parted, "okey", basket_rows, n_parts).materialize()

    # per-part basket counts (bounded part domain) and total basket count
    # (both are row counters — safe under any block slicing)
    pc_counts = grouped_aggregate(
        baskets, ["pkey"], [("count", None, "c")],
    ).to_pandas()  # bounded: one row per part
    part_c = dict(zip(pc_counts["pkey"].astype(int), pc_counts["c"].astype(int)))
    n_baskets = int(
        grouped_aggregate(
            baskets.map_batches(
                lambda b: pa.table({
                    "k": pa.array([0], type=pa.int64()),
                    "n": pa.array(
                        [int(b.column("first").to_numpy().sum())],
                        type=pa.int64()),
                }),
                batch_format="pyarrow", zero_copy_batch=True,
            ),
            ["k"], [("sum", "n", "n")],
        ).to_pandas()["n"][0]
    )

    def pairs_in_partition(group: pa.Table) -> pa.Table:
        """Intra-order pairs over the deduped basket rows of ONE whole
        hash(orderkey) partition."""
        okey = group.column("okey").to_numpy().astype(np.int64)
        pkey = group.column("pkey").to_numpy().astype(np.int64)
        empty = pa.table({
            "part_a": pa.array([], type=pa.int64()),
            "part_b": pa.array([], type=pa.int64()),
            "cab": pa.array([], type=pa.int64()),
        })
        if len(okey) < 2:
            return empty
        order = np.lexsort((pkey, okey))
        o, p = okey[order], pkey[order]
        keep = np.r_[True, (o[1:] != o[:-1]) | (p[1:] != p[:-1])]
        o, p = o[keep], p[keep]
        new_seg = np.r_[True, o[1:] != o[:-1]]
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(o)), 0))
        cnt = np.arange(len(o)) - seg_start
        total = int(cnt.sum())
        if total == 0:
            return empty
        j = np.repeat(np.arange(len(o)), cnt)
        csum = np.r_[0, np.cumsum(cnt)]
        i = np.arange(total) - np.repeat(csum[:-1], cnt) + np.repeat(seg_start, cnt)
        lo, hi = p[i], p[j]  # part-sorted within order -> lo < hi
        t = pa.table({"part_a": lo, "part_b": hi}).group_by(
            ["part_a", "part_b"]).aggregate([("part_a", "count")])
        return pa.table({
            "part_a": t.column("part_a"),
            "part_b": t.column("part_b"),
            "cab": pc.cast(t.column("part_a_count"), pa.int64()),
        })

    pairs = grouped_aggregate(
        hash_exchange(parted, "okey", pairs_in_partition, n_parts),
        ["part_a", "part_b"], [("sum", "cab", "cab")],
    )

    def block_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        c = batch.column("cab").to_numpy().astype(np.int64)
        order = np.lexsort((b, a, -c))[:TOP_PAIRS]
        return batch.take(pa.array(order, type=pa.int64()))

    tops = pairs.map_batches(
        block_top, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # bounded: TOP_PAIRS x blocks
    tops = tops.sort_values(
        ["cab", "part_a", "part_b"], ascending=[False, True, True]
    ).head(TOP_PAIRS)

    a = tops["part_a"].to_numpy().astype(np.int64)
    b = tops["part_b"].to_numpy().astype(np.int64)
    cab = tops["cab"].to_numpy().astype(np.int64)
    ca = np.array([part_c[int(x)] for x in a], dtype=np.int64)
    cb = np.array([part_c[int(x)] for x in b], dtype=np.int64)
    t = pa.table({
        "part_a": pa.array(a, type=pa.int64()),
        "part_b": pa.array(b, type=pa.int64()),
        "pair_orders": pa.array(cab, type=pa.int64()),
        "orders_a": pa.array(ca, type=pa.int64()),
        "orders_b": pa.array(cb, type=pa.int64()),
        "lift": pa.array(
            (n_baskets * cab).astype(np.float64) / (ca * cb).astype(np.float64),
            type=pa.float64()),
        "confidence": pa.array(
            cab.astype(np.float64) / ca.astype(np.float64), type=pa.float64()),
    })
    return ray.data.from_arrow(t)


SQL_PART_PAIR_LIFT = f"""
WITH op AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
), nb AS (
  SELECT CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n FROM op
), pcnt AS (
  SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS c FROM op GROUP BY 1
), pairs AS (
  SELECT a.l_partkey AS pa, b.l_partkey AS pb, CAST(COUNT(*) AS BIGINT) AS cab
  FROM op a JOIN op b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
), top AS (
  SELECT * FROM pairs ORDER BY cab DESC, pa, pb LIMIT {TOP_PAIRS}
)
SELECT t.pa AS part_a, t.pb AS part_b, t.cab AS pair_orders,
       ca.c AS orders_a, cb.c AS orders_b,
       CAST((SELECT n FROM nb) * t.cab AS DOUBLE)
           / CAST(ca.c * cb.c AS DOUBLE) AS lift,
       CAST(t.cab AS DOUBLE) / CAST(ca.c AS DOUBLE) AS confidence
FROM top t
JOIN pcnt ca ON ca.l_partkey = t.pa
JOIN pcnt cb ON cb.l_partkey = t.pb
"""


def build_queries_ext44() -> dict:
    return {"part_pair_lift": q_part_pair_lift}


def build_oracles_ext44() -> dict:
    return {"part_pair_lift": SQL_PART_PAIR_LIFT}
