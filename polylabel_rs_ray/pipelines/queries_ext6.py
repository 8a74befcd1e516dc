"""Round-2 extension operators, batch 7: iterative graph.

* ``pagerank_parts`` — weighted PageRank over the part co-occurrence
  graph (the edges of ``part_pair_counts``), SCALE-SAFE: the rank vector
  is never a dense driver-side array and is never broadcast.  Rank state
  lives as a co-partitioned ``(part, node, wdeg, rank)`` Dataset sharded
  by ``h(node) % P`` — the same union-then-groupby co-partitioned join
  the MinHash verify and the anti-join use.  Each power iteration is:

      state -> (node, rod = rank / wdeg) rows                (stateless map)
      union(directed edges keyed h(src), rod rows)
        -> groupby(part) -> per-group vectorized contribs    (shuffle 1)
           emitting (dst, contrib) pre-summed per dst and keyed h(dst)
      union(state, contrib rows) -> groupby(part)
        -> rank' = (1-d)/V + d*(inflow + dangling/V)         (shuffle 2)

  so an iteration moves only edge-sized and node-sized rows; the only
  driver-side values are three scalars (V, dangling mass, damping).  The
  per-iteration ``materialize()`` checkpoints the state so the lineage
  stays one superstep deep (the Pregel pattern).  The edge table — the
  AGGREGATED pair graph, orders of magnitude smaller than the fact table
  — is re-shuffled each iteration (Ray Data has no persistent
  partitioning); at much larger edge:node ratios the next step is P
  partition actors holding resident edge shards.  Rows-only (iterative
  float algorithm); pytest pins it against a dense numpy power iteration
  on the same graph.

  SIZE GATE (the minhash-verify/bloom pattern): the co-partitioned path
  pays ~3 executions per iteration — pure overhead when the node domain
  fits in one broadcastable vector.  Below ``PR_DENSE_MAX_NODES``
  (override: ``GRAFT_PR_DENSE_MAX``) ``q_pagerank_parts`` runs the dense
  histogram-reduce path instead: ranks broadcast via ``ray.put`` once per
  iteration, each edge block emits ONE dense length-V partial inflow, the
  reduce is an O(blocks) driver sum, no shuffle at all.  Equivalence of
  the two engine paths is pytest-pinned (test_ext6_ops)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

PR_DAMPING = 0.85
PR_ITERS = 8
PR_TOPK = 20
# dense-path gate: 4M nodes = a 32 MB float64 rank vector — comfortably
# broadcastable; past this the co-partitioned state path takes over
PR_DENSE_MAX_NODES = 4_000_000


def _pr_hash_part(ids: np.ndarray, n_parts: int) -> np.ndarray:
    """Same splitmix-style mix the dedup partitioner uses — decorrelates
    the partition from arithmetic structure in the node ids."""
    x = ids.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(n_parts)).astype(np.int64)


def pagerank_dataset(edges, nodes, damping: float = PR_DAMPING,
                     iters: int = PR_ITERS, n_parts: int | None = None):
    """Weighted PageRank over an (part_a, part_b, n_pairs) edge Dataset
    treated as undirected; ``nodes`` is a Dataset with one ``node`` column
    covering the full domain (isolated nodes included — they hold
    teleport-only rank).  Returns a Dataset of (node, rank) rows."""
    from .agg import grouped_aggregate

    P = n_partitions(n_parts)
    V = nodes.count()

    # --- one-time prep: directed edge table keyed by h(src) ---------------
    def to_directed(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        w = batch.column("n_pairs").to_numpy().astype(np.float64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        ww = np.concatenate([w, w])
        return pa.table({
            "part": pa.array(_pr_hash_part(src, P), type=pa.int64()),
            "src": pa.array(src, type=pa.int64()),
            "dst": pa.array(dst, type=pa.int64()),
            "w": pa.array(ww, type=pa.float64()),
            "rod": pa.nulls(len(src), pa.float64()),
        })

    directed = edges.map_batches(
        to_directed, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # aggregated pair graph: small vs the fact table

    # weighted degree per node: one map-side-combined groupby
    wdeg = grouped_aggregate(
        directed.select_columns(["src", "w"]), ["src"], [("sum", "w", "wdeg")]
    )

    # --- initial co-partitioned state: (part, node, wdeg, rank) -----------
    def nodes_keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column("node").to_numpy().astype(np.int64)
        return pa.table({
            "part": pa.array(_pr_hash_part(ids, P), type=pa.int64()),
            "node": pa.array(ids, type=pa.int64()),
            "wdeg": pa.array(np.zeros(len(ids)), type=pa.float64()),
            "rank": pa.nulls(len(ids), pa.float64()),
        })

    def wdeg_keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column("src").to_numpy().astype(np.int64)
        return pa.table({
            "part": pa.array(_pr_hash_part(ids, P), type=pa.int64()),
            "node": pa.array(ids, type=pa.int64()),
            "wdeg": pc.cast(batch.column("wdeg"), pa.float64()),
            "rank": pa.nulls(len(ids), pa.float64()),
        })

    r0 = 1.0 / V

    def init_state(group: pa.Table) -> pa.Table:
        # domain rows carry rank=null/wdeg=0; wdeg rows carry the degree.
        # max-combine per node gives (node, wdeg) over the full domain.
        ids = group.column("node").to_numpy().astype(np.int64)
        wd = group.column("wdeg").to_numpy()
        uniq, inv = np.unique(ids, return_inverse=True)
        acc = np.zeros(len(uniq))
        np.maximum.at(acc, inv, wd)
        return pa.table({
            "part": pa.array(_pr_hash_part(uniq, P), type=pa.int64()),
            "node": pa.array(uniq, type=pa.int64()),
            "wdeg": pa.array(acc, type=pa.float64()),
            "rank": pa.array(np.full(len(uniq), r0), type=pa.float64()),
        })

    state = (
        group_map(
            nodes.map_batches(nodes_keyed, batch_format="pyarrow", zero_copy_batch=True)
            .union(wdeg.map_batches(wdeg_keyed, batch_format="pyarrow",
                                    zero_copy_batch=True)),
            "part", init_state,
        )
        .repartition(P)
        .materialize()
    )

    for _ in range(iters):
        # dangling mass: one streamed scalar aggregate (O(1) on the driver)
        def dang_partial(batch: pa.Table) -> pa.Table:
            wd = batch.column("wdeg").to_numpy()
            rk = batch.column("rank").to_numpy()
            return pa.table({"m": pa.array([float(rk[wd == 0].sum())])})

        dangling = state.map_batches(
            dang_partial, batch_format="pyarrow", zero_copy_batch=True
        ).sum("m")
        base = (1.0 - damping) / V + damping * (dangling / V)

        # rod rows ride the SAME schema as the directed edges (src = node)
        def rod_rows(batch: pa.Table) -> pa.Table:
            wd = batch.column("wdeg").to_numpy()
            rk = batch.column("rank").to_numpy()
            rod = np.where(wd > 0, rk / np.maximum(wd, 1.0e-300), 0.0)
            n = batch.num_rows
            return pa.table({
                "part": batch.column("part"),
                "src": batch.column("node"),
                "dst": pa.nulls(n, pa.int64()),
                "w": pa.nulls(n, pa.float64()),
                "rod": pa.array(rod, type=pa.float64()),
            })

        def contribs(group: pa.Table) -> pa.Table:
            is_edge = pc.is_valid(group.column("dst"))
            eg = group.filter(is_edge)
            rr = group.filter(pc.invert(is_edge))
            if eg.num_rows == 0:
                return pa.table({
                    "part": pa.array([], type=pa.int64()),
                    "node": pa.array([], type=pa.int64()),
                    "contrib": pa.array([], type=pa.float64()),
                })
            rn = rr.column("src").to_numpy().astype(np.int64)
            rv = rr.column("rod").to_numpy()
            order = np.argsort(rn)
            rn, rv = rn[order], rv[order]
            src = eg.column("src").to_numpy().astype(np.int64)
            dst = eg.column("dst").to_numpy().astype(np.int64)
            w = eg.column("w").to_numpy()
            rod_src = rv[np.searchsorted(rn, src)]  # every src is co-located
            # pre-sum per destination inside the group (map-side combine)
            uniq, inv = np.unique(dst, return_inverse=True)
            acc = np.zeros(len(uniq))
            np.add.at(acc, inv, w * rod_src)
            return pa.table({
                "part": pa.array(_pr_hash_part(uniq, P), type=pa.int64()),
                "node": pa.array(uniq, type=pa.int64()),
                "contrib": pa.array(acc, type=pa.float64()),
            })

        contrib_rows = group_map(
            directed.union(state.map_batches(rod_rows, batch_format="pyarrow",
                                             zero_copy_batch=True)),
            "part", contribs,
        )

        # --- rank update: co-partitioned merge of state + contribs --------
        def state_for_update(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "part": batch.column("part"),
                "node": batch.column("node"),
                "wdeg": batch.column("wdeg"),
                "contrib": pa.nulls(n, pa.float64()),
            })

        def contrib_for_update(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "part": batch.column("part"),
                "node": batch.column("node"),
                "wdeg": pa.nulls(n, pa.float64()),
                "contrib": batch.column("contrib"),
            })

        def update(group: pa.Table) -> pa.Table:
            is_state = pc.is_valid(group.column("wdeg"))
            st = group.filter(is_state)
            cb = group.filter(pc.invert(is_state))
            ids = st.column("node").to_numpy().astype(np.int64)
            order = np.argsort(ids)
            ids = ids[order]
            wd = st.column("wdeg").to_numpy()[order]
            inflow = np.zeros(len(ids))
            if cb.num_rows:
                cn = cb.column("node").to_numpy().astype(np.int64)
                cv = cb.column("contrib").to_numpy()
                np.add.at(inflow, np.searchsorted(ids, cn), cv)
            rank = base + damping * inflow
            return pa.table({
                "part": pa.array(_pr_hash_part(ids, P), type=pa.int64()),
                "node": pa.array(ids, type=pa.int64()),
                "wdeg": pa.array(wd, type=pa.float64()),
                "rank": pa.array(rank, type=pa.float64()),
            })

        state = (
            group_map(
                state.map_batches(state_for_update, batch_format="pyarrow",
                                  zero_copy_batch=True)
                .union(contrib_rows.map_batches(
                    contrib_for_update, batch_format="pyarrow",
                    zero_copy_batch=True)),
                "part", update,
            )
            # cap state at P blocks: without this, blocks(state') =
            # 2*blocks(state) + blocks(directed) through the two unions, so
            # block count — and sort-shuffle O(in x out) exchange work —
            # grows EXPONENTIALLY across supersteps (measured: 8 iters hung
            # where 4 took 20 s)
            .repartition(P)
            .materialize()  # Pregel superstep checkpoint: lineage stays O(1)
        )

    return state.select_columns(["node", "rank"])


def pagerank_over_pairs(edges, node_ids: np.ndarray,
                        damping: float = PR_DAMPING, iters: int = PR_ITERS):
    """Test/driver convenience wrapper: run the distributed
    ``pagerank_dataset`` and collect the final ranks into a dense vector
    aligned with ``node_ids``.  The O(V) array exists only HERE, after the
    distributed computation finishes — nothing inside the iteration loop
    holds or broadcasts it."""
    import ray
    nodes = ray.data.from_arrow(
        pa.table({"node": pa.array(np.asarray(node_ids, dtype=np.int64))})
    )
    out = pagerank_dataset(edges, nodes, damping=damping, iters=iters).to_pandas()
    r = np.zeros(len(node_ids))
    pos = np.searchsorted(node_ids, out["node"].to_numpy())
    r[pos] = out["rank"].to_numpy()
    return r


def pagerank_dense(edges, node_ids: np.ndarray,
                   damping: float = PR_DAMPING, iters: int = PR_ITERS):
    """DENSE small-domain path: weighted PageRank over an
    (part_a, part_b, n_pairs) edge Dataset treated as undirected.
    ``node_ids`` is the full sorted node domain (isolated nodes included —
    they hold teleport-only rank; bounded by the PR_DENSE_MAX_NODES gate).
    Each iteration is one streamed pass over the edge blocks with the rank
    vector broadcast (``ray.put`` once per iteration): every block emits a
    single dense length-V partial inflow vector and the reduce is an
    O(blocks) driver sum — the histogram-reduce pattern, no shuffle.
    Returns the final rank vector aligned with node_ids."""
    import ray
    V = len(node_ids)
    ids_ref = ray.put(node_ids)

    def _dense_sum(ds) -> np.ndarray:
        # O(V x blocks) driver reduce — bounded by the dense gate
        parts = ds.to_pandas()
        acc = np.zeros(V, dtype=np.float64)
        for row in parts["vec"]:
            acc += np.asarray(row, dtype=np.float64)
        return acc

    # weighted degree s_u = sum of incident edge weights (one pass)
    def deg_partial(batch: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        w = batch.column("n_pairs").to_numpy().astype(np.float64)
        vec = np.zeros(len(ids), dtype=np.float64)
        np.add.at(vec, np.searchsorted(ids, a), w)
        np.add.at(vec, np.searchsorted(ids, b), w)
        return pa.table({"vec": pa.array([vec], type=pa.list_(pa.float64()))})

    s = _dense_sum(
        edges.map_batches(deg_partial, batch_format="pyarrow", zero_copy_batch=True)
    )

    r = np.full(V, 1.0 / V)
    for _ in range(iters):
        # rank-over-degree, zero for dangling nodes (their mass teleports)
        rod = np.where(s > 0, r / np.maximum(s, 1.0e-300), 0.0)
        rod_ref = ray.put(rod)

        def contrib(batch: pa.Table) -> pa.Table:
            ids = ray.get(ids_ref)
            rv = ray.get(rod_ref)
            a = batch.column("part_a").to_numpy().astype(np.int64)
            b = batch.column("part_b").to_numpy().astype(np.int64)
            w = batch.column("n_pairs").to_numpy().astype(np.float64)
            ia = np.searchsorted(ids, a)
            ib = np.searchsorted(ids, b)
            vec = np.zeros(len(ids), dtype=np.float64)
            np.add.at(vec, ia, w * rv[ib])
            np.add.at(vec, ib, w * rv[ia])
            return pa.table({"vec": pa.array([vec], type=pa.list_(pa.float64()))})

        inflow = _dense_sum(
            edges.map_batches(contrib, batch_format="pyarrow", zero_copy_batch=True)
        )
        dangling = float(r[s == 0].sum())
        r = (1.0 - damping) / V + damping * (inflow + dangling / V)
    return r


def q_pagerank_parts(sf_dir: str, force_path: str | None = None):
    import os

    import pyarrow.parquet as pq

    from .queries import q_part_pair_counts

    import ray
    dense_max = int(os.environ.get("GRAFT_PR_DENSE_MAX", PR_DENSE_MAX_NODES))
    v_total = pq.read_metadata(f"{sf_dir}/part.parquet").num_rows
    use_dense = force_path != "keyed" and (force_path == "dense"
                                           or v_total <= dense_max)

    if use_dense:
        # aggregated pair graph: repartition to a few dense blocks BEFORE
        # materializing — every one of the K iterations walks these blocks
        edges = q_part_pair_counts(sf_dir).repartition(8).materialize()
        node_ids = np.sort(
            pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey"])
            .column("p_partkey")
            .to_numpy()
            .astype(np.int64)
        )
        r = pagerank_dense(edges, node_ids)
        order = np.lexsort((node_ids, -r))[:PR_TOPK]
        return pa.table({
            "p_partkey": pa.array(node_ids[order], type=pa.int64()),
            "rank": pa.array(r[order], type=pa.float64()),
        })

    edges = q_part_pair_counts(sf_dir)
    nodes = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    ).map_batches(
        lambda b: pa.table({"node": pc.cast(b.column("p_partkey"), pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    ranks = pagerank_dataset(edges, nodes)

    # distributed top-k: per-block partial top-k, then a k*blocks-row sort
    def partial_topk(batch: pa.Table) -> pa.Table:
        r = batch.column("rank").to_numpy()
        n = batch.column("node").to_numpy().astype(np.int64)
        order = np.lexsort((n, -r))[:PR_TOPK]
        return pa.table({
            "p_partkey": pa.array(n[order], type=pa.int64()),
            "rank": pa.array(r[order], type=pa.float64()),
        })

    return (
        ranks.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["rank", "p_partkey"], descending=[True, False])
        .limit(PR_TOPK)
    )


def build_queries_ext6() -> dict:
    return {
        "pagerank_parts": q_pagerank_parts,
    }


def build_oracles_ext6() -> dict:
    # pagerank_parts stays rows-only: iterative float algorithm
    return {}
