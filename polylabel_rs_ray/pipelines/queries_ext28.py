"""Round-3 extension operators, batch 28: triangle counting over the part
co-purchase graph.

``triangle_parts`` — for every part, the number of triangles (triples of
parts that pairwise co-occur in some order) it participates in: the
clustering-structure primitive of graph analytics (and the classic
"hard because wedges explode" distributed op).

Algorithm: degree-oriented compact-forward (Latapy 2008).  Edges are
oriented low-(degree,id) -> high, so each triangle is generated exactly
once as a wedge at its lowest corner, and per-source out-degrees are
bounded by ~sqrt(2m) regardless of hub degree — the wedge total drops
from sum(deg^2) to m^(3/2) worst case (measured: 41M wedges for 1.2M
edges at sf0.1, max out-degree 97 vs max degree 222).

Distributed shape:
1. distinct edge list = the ``part_pair_counts`` pipeline (co-partition
   lineitem by order hash, vectorized intra-order pairs, hash aggregate).
2. the ORIENTED EDGE SET (one packed int64 per edge, sorted) is the
   closure index — built once, ``ray.put`` once (~10 MB per 10^6 edges;
   beyond ~10^8 edges the documented scale path is a wedge/edge hash-join
   exchange instead of the broadcast probe).
3. wedge generation is partitioned by source: the oriented edges (already
   driver-resident from step 2) are lexsorted by (src, dst) ONCE and cut
   into P contiguous blocks at source boundaries — every source's
   out-neighborhood lives in exactly one block, so wedge expansion is a
   plain ``map_batches`` with ZERO shuffle (no groupby sort exchange).
   Each block expands its sources' out-neighbor pairs with the
   segmented-ranges trick (pure numpy), probes the sorted packed edge set
   with ONE searchsorted, and emits per-node triangle-count partials; a
   high-cardinality aggregate sums them per part.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import n_partitions


def q_triangle_parts(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate
    from .queries import q_part_pair_counts

    import ray
    P = n_partitions(n_parts)

    # 1. distinct co-purchase edges (part_a < part_b), distributed build;
    # the edge list is the broadcast index, so it lands on the driver once
    edges = q_part_pair_counts(sf_dir).select_columns(
        ["part_a", "part_b"]
    ).to_pandas()
    ea = edges["part_a"].to_numpy().astype(np.int64)
    eb = edges["part_b"].to_numpy().astype(np.int64)

    # 2. compact node ids, degree-order ranks, oriented packed edge set
    nodes, inv = np.unique(np.concatenate([ea, eb]), return_inverse=True)
    ia, ib = inv[: len(ea)], inv[len(ea):]
    deg = np.bincount(np.concatenate([ia, ib]), minlength=len(nodes))
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[np.lexsort((nodes, deg))] = np.arange(len(nodes))
    ra, rb = rank[ia], rank[ib]
    src = np.where(ra < rb, ra, rb)  # orient low-rank -> high-rank
    dst = np.where(ra < rb, rb, ra)
    packed = np.sort((src << np.int64(32)) | dst)
    node_of_rank = np.empty(len(nodes), dtype=np.int64)
    node_of_rank[rank] = nodes
    index_ref = ray.put((packed, node_of_rank))

    # 3. wedge blocks: lexsort the oriented edges by (src, dst) once, cut
    # into P contiguous blocks at source boundaries (a source's whole
    # out-neighborhood stays in one block) -> wedge expansion needs NO
    # groupby exchange, just a stateless map over the blocks
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    starts = np.r_[True, src[1:] != src[:-1]]  # source-run boundaries
    run_ix = np.flatnonzero(starts)
    cut_of_run = np.minimum(
        np.searchsorted(run_ix, np.linspace(0, len(src), P + 1)), len(run_ix) - 1
    )
    cuts = np.unique(np.r_[0, run_ix[cut_of_run], len(src)])
    blocks = [
        pa.table({
            "src": pa.array(src[a:b], type=pa.int64()),
            "dst": pa.array(dst[a:b], type=pa.int64()),
        })
        for a, b in zip(cuts[:-1], cuts[1:])
        if b > a
    ]
    ds = ray.data.from_arrow(blocks)

    def count_wedges(group: pa.Table) -> pa.Table:
        s = group.column("src").to_numpy().astype(np.int64)
        d = group.column("dst").to_numpy().astype(np.int64)
        empty = pa.table({
            "part_key": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
        })
        if len(s) == 0:
            return empty
        packed_idx, ranks_to_nodes = ray.get(index_ref)
        # segmented-ranges pair expansion: neighbor j pairs with every
        # EARLIER neighbor i of its source (i < j => d[i] < d[j]: rank
        # order — the driver's (src, dst) lexsort guarantees it)
        new_seg = np.r_[True, s[1:] != s[:-1]]
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(s)), 0))
        cnt = np.arange(len(s)) - seg_start
        j = np.repeat(np.arange(len(s)), cnt)
        total = int(cnt.sum())
        if total == 0:
            return empty
        csum = np.r_[0, np.cumsum(cnt)]
        i = np.arange(total) - np.repeat(csum[:-1], cnt) + np.repeat(seg_start, cnt)
        v, w = d[i], d[j]  # v < w in rank order by construction
        keys = (v << np.int64(32)) | w
        pos = np.searchsorted(packed_idx, keys)
        pos[pos == len(packed_idx)] = 0
        hit = packed_idx[pos] == keys
        u = s[j][hit]
        corners = np.concatenate([u, v[hit], w[hit]])
        if len(corners) == 0:
            return empty
        uniq, cc = np.unique(corners, return_counts=True)
        return pa.table({
            "part_key": pa.array(ranks_to_nodes[uniq], type=pa.int64()),
            "n": pa.array(cc.astype(np.int64), type=pa.int64()),
        })

    partials = ds.map_batches(
        count_wedges, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return grouped_aggregate(partials, ["part_key"], [("sum", "n", "n_tri")])


SQL_TRIANGLE_PARTS = """
    WITH pairs AS (
        SELECT a.l_partkey AS pa, b.l_partkey AS pb
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
        GROUP BY 1, 2
    ),
    tri AS (
        SELECT e1.pa AS a, e1.pb AS b, e2.pb AS c
        FROM pairs e1
        JOIN pairs e2 ON e2.pa = e1.pb
        JOIN pairs e3 ON e3.pa = e1.pa AND e3.pb = e2.pb
    ),
    corners AS (
        SELECT a AS part_key FROM tri
        UNION ALL SELECT b FROM tri
        UNION ALL SELECT c FROM tri
    )
    SELECT part_key, CAST(COUNT(*) AS BIGINT) AS n_tri
    FROM corners GROUP BY 1
"""


def build_queries_ext28() -> dict:
    return {"triangle_parts": q_triangle_parts}


def build_oracles_ext28() -> dict:
    return {"triangle_parts": SQL_TRIANGLE_PARTS}
