"""Round-3 extension operators, batch 141: common-neighbor link scores
+ time-range partitioner balance audit.

``common_neighbor_scores`` — the classic link-prediction score over
the part co-purchase graph: for the TOP-20 co-purchase pairs (by row
-pair count, ties by keys — the part_pair_counts contract), the
number of COMMON NEIGHBORS |N(a) ∩ N(b)| in the graph whose edges
are "ever co-purchased in one order".  Shape: the distributed pair
table (co-partitioned intra-order fan-out, map-side combine — the
part_pair_counts machinery reused) feeds (1) a partial-top-k per
block + small final sort for the top pairs, and (2) a NEIGHBOR-keyed
co-partitioned exchange — each endpoint-touching edge ships as one
(neighbor, endpoint-slot) row, every group resolves its neighbors
against a ≤2·TOP_PAIRS-bit presence row and emits per-pair partial
counts, and the driver only ever sees the bounded TOP_PAIRS-row
aggregate (no structure proportional to a hub's degree anywhere).
Oracle: the same pair CTE + a two-hop self-join.

``range_partition_audit`` — the planner audit for the arithmetic
time-range partitioner the engine's global-order operators use (late
_event_audit, token_packing): split the events time span into 16
equal ranges (integer arithmetic, last range takes the remainder) and
report per-range row counts plus the global min/max counts — the
skew a range partitioner would see, bounded 16-row output.  Oracle:
the same integer range arithmetic.

Reference anchors: graph + engine-audit families (SURVEY.md §2.4);
siblings: part_pair_counts / triangle_parts (co-purchase graph),
part_bfs_hops, partition_skew_audit (hash-partitioner counterpart).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange, n_partitions

TOP_PAIRS = 20
N_RANGES = 16


# --------------------------------------------------------------------------
# common_neighbor_scores
# --------------------------------------------------------------------------


def q_common_neighbor_scores(sf_dir: str):
    from .queries import q_part_pair_counts

    import ray
    # TWO consumers (top-pairs sweep + endpoint touch): materialize so the
    # lineitem pair exchange executes once; the distinct-pair table is
    # bounded by the part-key domain, not corpus rows
    pairs = q_part_pair_counts(sf_dir).materialize()

    def partial_topk(batch: pa.Table) -> pa.Table:
        n = batch.column("n_pairs").to_numpy().astype(np.int64)
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        order = np.lexsort((b, a, -n))[:TOP_PAIRS]
        return pa.table({
            "part_a": pa.array(a[order], type=pa.int64()),
            "part_b": pa.array(b[order], type=pa.int64()),
            "n_pairs": pa.array(n[order], type=pa.int64()),
        })

    top = (pairs.map_batches(partial_topk, batch_format="pyarrow",
                             zero_copy_batch=True)
                .sort(["n_pairs", "part_a", "part_b"],
                      descending=[True, False, False])
                .limit(TOP_PAIRS)
                .to_pandas())
    endpoints = sorted(set(top["part_a"]) | set(top["part_b"]))
    n_ep = len(endpoints)  # <= 2 * TOP_PAIRS
    ep_idx = {int(e): i for i, e in enumerate(endpoints)}
    top_a = top["part_a"].to_numpy().astype(np.int64)
    top_b = top["part_b"].to_numpy().astype(np.int64)
    ep = ray.put(np.array(endpoints, dtype=np.int64))

    # common neighbors, NEIGHBOR-keyed: v counts for pair (a, b) iff
    # edges (a, v) and (b, v) both exist.  Each edge touching an endpoint
    # becomes one (neighbor v, endpoint slot) row; the hash(v) exchange
    # co-locates every endpoint adjacent to a given v, so each group
    # resolves its v's against a <= 2*TOP_PAIRS-bit presence row and
    # emits per-pair PARTIAL counts.  No driver structure proportional
    # to any hub's degree — the driver only ever sees the bounded
    # TOP_PAIRS-row aggregate.
    from .agg import grouped_aggregate

    P = n_partitions(None)

    def touch(batch: pa.Table) -> pa.Table:
        eps = ray.get(ep)
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        ka = np.isin(a, eps)
        kb = np.isin(b, eps)
        # (v = the other end, u = the endpoint), both orientations
        v = np.concatenate([b[ka], a[kb]])
        u = np.concatenate([a[ka], b[kb]])
        return pa.table({
            "v": pa.array(v, type=pa.int64()),
            "u": pa.array(u, type=pa.int64()),
        })

    def pair_partials(group: pa.Table) -> pa.Table:
        v = group.column("v").to_numpy().astype(np.int64)
        u = group.column("u").to_numpy().astype(np.int64)
        vu, vinv = np.unique(v, return_inverse=True)
        present = np.zeros((len(vu), n_ep), dtype=bool)
        uslot = np.fromiter((ep_idx[x] for x in u), np.int64, len(u))
        present[vinv, uslot] = True
        cnt = np.empty(len(top_a), dtype=np.int64)
        for i, (a_, b_) in enumerate(zip(top_a, top_b)):
            ok = present[:, ep_idx[int(a_)]] & present[:, ep_idx[int(b_)]]
            ok &= (vu != a_) & (vu != b_)
            cnt[i] = int(ok.sum())
        return pa.table({
            "pair_idx": pa.array(np.arange(len(top_a)), type=pa.int64()),
            "cn": pa.array(cnt, type=pa.int64()),
        })

    agg = grouped_aggregate(
        hash_exchange(
            pairs.map_batches(touch, batch_format="pyarrow", zero_copy_batch=True),
            "v", pair_partials, P,
        ),
        ["pair_idx"], [("sum", "cn", "cn")],
    ).to_pandas().set_index("pair_idx")["cn"]  # bounded: TOP_PAIRS rows
    common = [int(agg.get(i, 0)) for i in range(len(top_a))]
    return ray.data.from_arrow(pa.table({
        "part_a": pa.array(top_a),
        "part_b": pa.array(top_b),
        "n_pairs": pa.array(top["n_pairs"].to_numpy().astype(np.int64)),
        "common_neighbors": pa.array(common, type=pa.int64()),
    }))


SQL_COMMON_NEIGHBOR_SCORES = """
WITH pc AS (
    SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
           CAST(COUNT(*) AS BIGINT) AS n_pairs
    FROM lineitem a JOIN lineitem b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    GROUP BY 1, 2
), top AS (
    SELECT part_a, part_b, n_pairs FROM pc
    ORDER BY n_pairs DESC, part_a, part_b LIMIT 20
), edges AS (
    SELECT part_a AS u, part_b AS v FROM pc
    UNION ALL
    SELECT part_b, part_a FROM pc
)
SELECT t.part_a, t.part_b, t.n_pairs,
       CAST((SELECT COUNT(*) FROM edges ea JOIN edges eb
             ON ea.v = eb.v
             WHERE ea.u = t.part_a AND eb.u = t.part_b
               AND ea.v <> t.part_a AND ea.v <> t.part_b) AS BIGINT)
           AS common_neighbors
FROM top t
"""


# --------------------------------------------------------------------------
# range_partition_audit
# --------------------------------------------------------------------------


def q_range_partition_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    # bounds: one bounded min/max aggregate (constant-size partials)
    def mm(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "lo": pa.array([int(t.min())], type=pa.int64()),
            "hi": pa.array([int(t.max())], type=pa.int64()),
        })

    b = grouped_aggregate(
        ds.map_batches(mm, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("min", "lo", "lo"), ("max", "hi", "hi")],
    ).to_pandas()
    lo, hi = int(b["lo"][0]), int(b["hi"][0])
    width = (hi - lo) // N_RANGES + 1  # ceil-ish: last range absorbs tail

    def bucket(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        r = np.minimum((t - lo) // width, N_RANGES - 1)
        tt = pa.table({"r": pa.array(r, type=pa.int64())})
        out = tt.group_by(["r"]).aggregate([("r", "count")])
        return pa.table({
            "r": out.column("r"),
            "n": pc.cast(out.column("r_count"), pa.int64()),
        })

    h = grouped_aggregate(
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True),
        ["r"], [("sum", "n", "n")],
    ).to_pandas().set_index("r")["n"]
    counts = np.array([int(h.get(i, 0)) for i in range(N_RANGES)],
                      dtype=np.int64)
    return ray.data.from_arrow(pa.table({
        "range_idx": pa.array(np.arange(N_RANGES), type=pa.int64()),
        "n_rows": pa.array(counts, type=pa.int64()),
        "min_rows": pa.array(np.full(N_RANGES, counts.min()),
                             type=pa.int64()),
        "max_rows": pa.array(np.full(N_RANGES, counts.max()),
                             type=pa.int64()),
    }))


SQL_RANGE_PARTITION_AUDIT = f"""
WITH bounds AS (
  SELECT MIN(epoch_us(ts)) AS lo, MAX(epoch_us(ts)) AS hi FROM events
), w AS (
  SELECT lo, (hi - lo) // {N_RANGES} + 1 AS width FROM bounds
), r AS (
  SELECT LEAST((epoch_us(ts) - (SELECT lo FROM w))
               // (SELECT width FROM w), {N_RANGES - 1}) AS range_idx
  FROM events
), h AS (
  SELECT g.i AS range_idx,
         CAST(COALESCE(COUNT(r.range_idx), 0) AS BIGINT) AS n_rows
  FROM (SELECT UNNEST(range({N_RANGES})) AS i) g
  LEFT JOIN r ON r.range_idx = g.i
  GROUP BY g.i
)
SELECT range_idx, n_rows,
       CAST(MIN(n_rows) OVER () AS BIGINT) AS min_rows,
       CAST(MAX(n_rows) OVER () AS BIGINT) AS max_rows
FROM h
"""


def build_queries_ext141() -> dict:
    return {
        "common_neighbor_scores": q_common_neighbor_scores,
        "range_partition_audit": q_range_partition_audit,
    }


def build_oracles_ext141() -> dict:
    return {
        "common_neighbor_scores": SQL_COMMON_NEIGHBOR_SCORES,
        "range_partition_audit": SQL_RANGE_PARTITION_AUDIT,
    }
