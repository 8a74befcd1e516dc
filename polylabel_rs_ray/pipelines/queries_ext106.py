"""Round-3 extension operators, batch 106: graph BFS + rank correlation.

``part_bfs_hops`` — breadth-first hop distances over the undirected
part co-occurrence graph (edges = ``part_pair_counts``), source = the
smallest part id in the edge set.  Distributed shape: the edge table
(a bounded aggregated pair table over the part DIMENSION) materializes
once; each BFS round is ONE streamed pass over the edge blocks that
emits the per-block unique neighbor set of the broadcast frontier —
frontier and visited sets are dimension-sized driver state, the same
trade every broadcast-dim join in this repo makes (part retail prices
in Q9, supplier names in Q21).  For node domains beyond dimension
scale the keyed min-label propagation of ``dedup_clusters`` is the
pattern; this op is the frontier-broadcast complement for
dimension-bounded graphs.  Rounds = graph diameter (2 on this data —
co-occurrence graphs are near-cliques).  Oracle: a recursive CTE
replays the BFS exactly (UNION-dedup on (node, hops), MIN(hops) per
node).

``qty_discount_spearman`` — tie-corrected Spearman rank correlation
between lineitem quantity and discount, EXACT: both domains are
bounded (50 quantity values x 11 discount percents), so one map-side
combined pass builds the 550-cell contingency table, and average ranks
enter as the integer ``2r = 2*cum_before + cnt + 1``.  All moment sums
fold driver-side in unbounded Python ints (n*S_xy - S_x*S_y overflows
int64 past ~sf0.3 — the bounded-cell fold sidesteps it); the SQL twin
folds the same 550 cells in HUGEINT.  Exact numerator/denominator
components ship as decimal strings (the ext68 OLS convention); rho is
the one float, computed identically on both sides as
``num / (sqrt(d1) * sqrt(d2))`` over double-cast exact ints.

Reference anchors: engine-level analytics surface (SURVEY.md §2.4).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


BFS_MAX_HOPS = 8


def q_part_bfs_hops(sf_dir: str, n_parts: int | None = None):
    import pandas as pd

    from .queries import q_part_pair_counts

    edges = q_part_pair_counts(sf_dir, n_parts=n_parts).materialize()
    # bounded: one row per distinct co-occurring part pair (part-dimension
    # domain), already combined map-side by part_pair_counts
    src = edges.min("part_a")

    visited: dict[int, int] = {int(src): 0}
    frontier = np.array([int(src)], dtype=np.int64)

    for hop in range(1, BFS_MAX_HOPS + 1):
        fr = np.sort(frontier)

        def block_neighbors(batch: pa.Table, fr=fr) -> pa.Table:
            a = batch.column("part_a").to_numpy().astype(np.int64)
            b = batch.column("part_b").to_numpy().astype(np.int64)
            pos_a = np.clip(np.searchsorted(fr, a), 0, len(fr) - 1)
            pos_b = np.clip(np.searchsorted(fr, b), 0, len(fr) - 1)
            out = np.unique(np.concatenate(
                [b[fr[pos_a] == a], a[fr[pos_b] == b]]))
            return pa.table({"node": pa.array(out, type=pa.int64())})

        # per-block neighbor sets are dimension-bounded; the driver fold is
        # O(V) on the part dimension (documented bound, see module docstring)
        nbrs = edges.map_batches(block_neighbors, batch_format="pyarrow",
                                 zero_copy_batch=True).to_pandas()
        new = [int(v) for v in pd.unique(nbrs["node"])
               if int(v) not in visited]
        if not new:
            break
        for v in new:
            visited[v] = hop
        frontier = np.array(sorted(new), dtype=np.int64)

    items = sorted(visited.items())
    return pa.table({
        "part_node": pa.array([k for k, _ in items], type=pa.int64()),
        "hops": pa.array([h for _, h in items], type=pa.int64()),
    })


SQL_PART_BFS_HOPS = f"""
WITH RECURSIVE pairs AS (
  SELECT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
),
e AS (
  SELECT pa AS s, pb AS d FROM pairs
  UNION ALL
  SELECT pb AS s, pa AS d FROM pairs
),
bfs(node, hops) AS (
  SELECT (SELECT MIN(pa) FROM pairs), 0
  UNION
  SELECT e.d, bfs.hops + 1
  FROM bfs JOIN e ON e.s = bfs.node
  WHERE bfs.hops < {BFS_MAX_HOPS}
)
SELECT node AS part_node, CAST(MIN(hops) AS BIGINT) AS hops
FROM bfs GROUP BY node ORDER BY part_node
"""


def q_qty_discount_spearman(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def cell_counts(batch: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(batch.column("l_quantity")),
                    pa.int64()).to_numpy()
        d = pc.cast(pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
                    pa.int64()).to_numpy()
        g = pa.table({
            "qv": pa.array(q, type=pa.int64()),
            "dv": pa.array(d, type=pa.int64()),
            "one": pa.array(np.ones(len(q), np.int64)),
        }).group_by(["qv", "dv"]).aggregate([("one", "sum")])
        return pa.table({
            "qv": g.column("qv"), "dv": g.column("dv"),
            "n": g.column("one_sum"),
        })

    cells = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_quantity", "l_discount"],
        ).map_batches(cell_counts, batch_format="pyarrow",
                      zero_copy_batch=True),
        ["qv", "dv"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: 50 x 11 cells

    qv = cells["qv"].to_numpy(np.int64)
    dv = cells["dv"].to_numpy(np.int64)
    nc = cells["n"].to_numpy(np.int64)

    def rank2_map(vals: np.ndarray, cnts: np.ndarray) -> dict[int, int]:
        # average rank of a tie group, doubled to stay integer:
        # 2r = 2*cum_before + cnt + 1 (exact Python ints from here on)
        order = np.argsort(vals)
        out, cum = {}, 0
        for v, c in zip(vals[order].tolist(), cnts[order].tolist()):
            out[v] = 2 * cum + c + 1
            cum += c
        return out

    uq, iq = np.unique(qv, return_inverse=True)
    cq = np.zeros(len(uq), np.int64)
    np.add.at(cq, iq, nc)
    ud, idx = np.unique(dv, return_inverse=True)
    cd = np.zeros(len(ud), np.int64)
    np.add.at(cd, idx, nc)
    r2q = rank2_map(uq, cq)
    r2d = rank2_map(ud, cd)

    n_tot = sx = sy = sxx = syy = sxy = 0
    for q, d, c in zip(qv.tolist(), dv.tolist(), nc.tolist()):
        x, y, c = r2q[q], r2d[d], int(c)
        n_tot += c
        sx += c * x
        sy += c * y
        sxx += c * x * x
        syy += c * y * y
        sxy += c * x * y
    num = n_tot * sxy - sx * sy
    d1 = n_tot * sxx - sx * sx
    d2 = n_tot * syy - sy * sy
    rho = float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
    return pa.table({
        "n_rows": pa.array([n_tot], type=pa.int64()),
        "num_str": pa.array([str(num)], type=pa.string()),
        "d1_str": pa.array([str(d1)], type=pa.string()),
        "d2_str": pa.array([str(d2)], type=pa.string()),
        "rho": pa.array([rho], type=pa.float64()),
    })


SQL_QTY_DISCOUNT_SPEARMAN = """
WITH base AS (
  SELECT CAST(ROUND(l_quantity) AS BIGINT) AS qv,
         CAST(ROUND(l_discount * 100) AS BIGINT) AS dv
  FROM lineitem
),
h AS (SELECT qv, dv, CAST(COUNT(*) AS HUGEINT) AS n FROM base GROUP BY 1, 2),
qm AS (SELECT qv, SUM(n) AS cnt FROM h GROUP BY qv),
qr AS (SELECT qv, 2 * (SUM(cnt) OVER (ORDER BY qv) - cnt) + cnt + 1 AS r2
       FROM qm),
dm AS (SELECT dv, SUM(n) AS cnt FROM h GROUP BY dv),
dr AS (SELECT dv, 2 * (SUM(cnt) OVER (ORDER BY dv) - cnt) + cnt + 1 AS r2
       FROM dm),
s AS (
  SELECT SUM(h.n) AS n_tot,
         SUM(h.n * qr.r2) AS sx, SUM(h.n * dr.r2) AS sy,
         SUM(h.n * qr.r2 * qr.r2) AS sxx,
         SUM(h.n * dr.r2 * dr.r2) AS syy,
         SUM(h.n * qr.r2 * dr.r2) AS sxy
  FROM h JOIN qr USING (qv) JOIN dr USING (dv)
)
SELECT CAST(n_tot AS BIGINT) AS n_rows,
       CAST(n_tot * sxy - sx * sy AS VARCHAR) AS num_str,
       CAST(n_tot * sxx - sx * sx AS VARCHAR) AS d1_str,
       CAST(n_tot * syy - sy * sy AS VARCHAR) AS d2_str,
       CAST(n_tot * sxy - sx * sy AS DOUBLE)
         / (SQRT(CAST(n_tot * sxx - sx * sx AS DOUBLE))
            * SQRT(CAST(n_tot * syy - sy * sy AS DOUBLE))) AS rho
FROM s
"""


def build_queries_ext106() -> dict:
    return {
        "part_bfs_hops": q_part_bfs_hops,
        "qty_discount_spearman": q_qty_discount_spearman,
    }


def build_oracles_ext106() -> dict:
    return {
        "part_bfs_hops": SQL_PART_BFS_HOPS,
        "qty_discount_spearman": SQL_QTY_DISCOUNT_SPEARMAN,
    }
