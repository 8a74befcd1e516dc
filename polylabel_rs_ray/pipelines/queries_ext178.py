"""Round-3 extension operators, batch 178: exact Markov stationary
weights via the matrix-tree theorem + quadtree leaf census.

``markov_stationary_exact`` — the stationary distribution of the
event-type Markov chain WITHOUT floating point: by the Markov-chain
tree theorem, π_i ∝ r_i · t_i where r_i is the row sum of the
transition COUNT matrix and t_i (the in-tree sum) is the i-th
principal minor determinant of the directed out-degree Laplacian
(self-loops drop).  Everything stays integer: the engine reduces the
5×5 transition counts distributed (LEAD-pairs per user through the
map-side combine), then folds the five 4×4 minors in Python big
ints by fraction-free Bareiss elimination; the oracle computes the
SAME minors as machine-generated 24-term permutation expansions in
HUGEINT over a conditional-sum pivot of the count matrix — two
classical determinant algorithms, one exact integer answer, emitted
as decimal strings (the balance_skewness precedent).  πP = π is
pinned in pytest with Fractions.  The five event types are the
corpus generator's fixed alphabet (asserted in the engine).

``quadtree_leaf_census`` — the quadtree compression profile of the
occupied res-5 lattice: a leaf is a MAXIMAL uniform 2^k block (all
occupied or all empty, with a mixed parent — or the root); emitted
per (block_size, value): leaf count.  The census is exactly the node
census of the canonical region quadtree, i.e. how compressible the
occupancy raster is.  Engine: reshape min/max reductions per level +
a parent-mixed mask.  Oracle: one generic blocks CTE (cells × level
values, grouped by ix//bs) self-joined to its parent level.

Reference anchors: graph-stochastic + raster-index families
(SURVEY.md §2.3/§2.4); siblings: type_transition_matrix (the counts),
pagerank_parts (the float-iterative cousin), tile_pyramid (level
aggregation), balance_skewness_moments (big-int/HUGEINT contract).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
QT_RES = 5


# --------------------------------------------------------------------------
# markov_stationary_exact
# --------------------------------------------------------------------------


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant over Python ints."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for s in range(k + 1, n):
                if a[s][k] != 0:
                    a[k], a[s] = a[s], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def q_markov_stationary_exact(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def pairs(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, et = uid[order], et[order]
        same = uid[:-1] == uid[1:]
        t = pa.table({
            "src_t": pa.array(et[:-1][same].tolist(), type=pa.string()),
            "dst_t": pa.array(et[1:][same].tolist(), type=pa.string()),
            "one": pa.array(np.ones(int(same.sum()), dtype=np.int64)),
        })
        g = t.group_by(["src_t", "dst_t"]).aggregate([("one", "sum")])
        return pa.table({
            "src_t": g.column("src_t"),
            "dst_t": g.column("dst_t"),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
        })

    cnt = grouped_aggregate(
        hash_exchange(ds, "user_id", pairs, n_parts),
        ["src_t", "dst_t"], [("sum", "n", "n")],
    ).to_pandas()  # bounded 5x5

    types = list(EVENT_TYPES)
    assert set(cnt["src_t"]) <= set(types), sorted(set(cnt["src_t"]))
    k = len(types)
    C = [[0] * k for _ in range(k)]
    for r in cnt.itertuples():
        C[types.index(r.src_t)][types.index(r.dst_t)] = int(r.n)
    rows = [sum(C[u]) for u in range(k)]
    L = [[(rows[u] - C[u][u]) if u == v else -C[u][v]
          for v in range(k)] for u in range(k)]
    weights = []
    for i in range(k):
        minor = [[L[u][v] for v in range(k) if v != i]
                 for u in range(k) if u != i]
        weights.append(rows[i] * _bareiss_det(minor))
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "row_count": pa.array(rows, type=pa.int64()),
        "weight_str": pa.array([str(w) for w in weights],
                               type=pa.string()),
    }))


def _sql_markov_stationary_exact() -> str:
    k = len(EVENT_TYPES)
    cols = []
    for u, tu in enumerate(EVENT_TYPES):
        for v, tv in enumerate(EVENT_TYPES):
            cols.append(
                f"CAST(COALESCE(SUM(CASE WHEN event_type = '{tu}' AND "
                f"nxt = '{tv}' THEN 1 END), 0) AS HUGEINT) AS c_{u}_{v}")
    head = f"""
WITH seq AS MATERIALIZED (
  SELECT event_type,
         LEAD(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events
), m AS MATERIALIZED (
  SELECT {', '.join(cols)}
  FROM seq WHERE nxt IS NOT NULL
)"""

    def lap(u: int, v: int) -> str:
        if u == v:
            others = " + ".join(f"c_{u}_{w}" for w in range(k) if w != u)
            return f"({others})"
        return f"(-c_{u}_{v})"

    selects = []
    for i, ti in enumerate(EVENT_TYPES):
        rows_u = [u for u in range(k) if u != i]
        cols_v = [v for v in range(k) if v != i]
        terms = []
        for perm in permutations(range(k - 1)):
            sign = 1
            # permutation parity by inversion count
            inv = sum(1 for a in range(k - 1) for b in range(a + 1, k - 1)
                      if perm[a] > perm[b])
            sign = -1 if inv % 2 else 1
            prod = " * ".join(
                lap(rows_u[r], cols_v[perm[r]]) for r in range(k - 1))
            terms.append(f"({'-' if sign < 0 else ''}{prod})")
        det = " + ".join(terms)
        rsum = " + ".join(f"c_{i}_{w}" for w in range(k))
        selects.append(f"""
SELECT '{ti}' AS event_type,
       CAST(({rsum}) AS BIGINT) AS row_count,
       CAST(({rsum}) * ({det}) AS VARCHAR) AS weight_str
FROM m""")
    return head + " UNION ALL ".join(selects)


# --------------------------------------------------------------------------
# quadtree_leaf_census
# --------------------------------------------------------------------------


def q_quadtree_leaf_census(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, QT_RES)
    n = lat.shape[0]
    occ = (lat > 0).astype(np.int64)
    sizes, vals, counts = [], [], []
    uniform = {}
    minv, maxv = {}, {}
    bs = 1
    mn = mx = occ
    while bs <= n:
        minv[bs], maxv[bs] = mn, mx
        uniform[bs] = mn == mx
        if bs < n:
            mn = np.minimum.reduce([mn[0::2, 0::2], mn[1::2, 0::2],
                                    mn[0::2, 1::2], mn[1::2, 1::2]])
            mx = np.maximum.reduce([mx[0::2, 0::2], mx[1::2, 0::2],
                                    mx[0::2, 1::2], mx[1::2, 1::2]])
        bs *= 2
    bs = 1
    while bs <= n:
        uni = uniform[bs]
        if bs == n:
            leaf = uni
        else:
            parent_mixed = ~uniform[bs * 2]
            leaf = uni & np.repeat(np.repeat(parent_mixed, 2, axis=0),
                                   2, axis=1)[:uni.shape[0], :uni.shape[1]]
        for val in (0, 1):
            c = int((leaf & (minv[bs] == val)).sum())
            if c:
                sizes.append(bs)
                vals.append(val)
                counts.append(c)
        bs *= 2
    return ray.data.from_arrow(pa.table({
        "block_size": pa.array(sizes, type=pa.int64()),
        "val": pa.array(vals, type=pa.int64()),
        "n_leaves": pa.array(counts, type=pa.int64()),
    }))


def _sql_quadtree_leaf_census() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << QT_RES
    bss = ", ".join(f"({1 << i})" for i in range(QT_RES + 1))
    return _sql_grid_cte(QT_RES) + f"""
, cellv AS MATERIALIZED (
  SELECT g.ix, g.iy,
         CASE WHEN EXISTS (SELECT 1 FROM occ c WHERE c.ix = g.ix
                           AND c.iy = g.iy) THEN 1 ELSE 0 END AS v
  FROM grid g
), lv AS (SELECT bs FROM (VALUES {bss}) t(bs)
), blocks AS MATERIALIZED (
  SELECT l.bs, c.ix // l.bs AS bx, c.iy // l.bs AS byy,
         MIN(c.v) AS mn, MAX(c.v) AS mx
  FROM cellv c, lv l
  GROUP BY 1, 2, 3
)
SELECT CAST(b.bs AS BIGINT) AS block_size,
       CAST(b.mn AS BIGINT) AS val,
       CAST(COUNT(*) AS BIGINT) AS n_leaves
FROM blocks b
LEFT JOIN blocks p ON p.bs = b.bs * 2 AND p.bx = b.bx // 2
                  AND p.byy = b.byy // 2
WHERE b.mn = b.mx AND (p.bs IS NULL OR p.mn < p.mx)
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext178():
    return {
        "markov_stationary_exact": q_markov_stationary_exact,
        "quadtree_leaf_census": q_quadtree_leaf_census,
    }


def build_oracles_ext178():
    return {
        "markov_stationary_exact": _sql_markov_stationary_exact(),
        "quadtree_leaf_census": _sql_quadtree_leaf_census(),
    }
