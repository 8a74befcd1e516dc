"""Round-3 extension operators, batch 165: occupied-tile connected
components + v-optimal histogram DP.

``tile_components`` — 4-connected component labeling of the occupied
tiles (the raster region-extraction primitive): every occupied cell of
the COMP_RES = 7 lattice (128×128 — the coarsest lattice where the
label clusters don't merge into one blob at sf0.1; 14/14/5 components
at sf0.001/0.01/0.1, measured) gets its component's canonical id (the
minimum linear cell index in the component) and the component size.
The occupied set comes from the distributed groupby(tile_id) shuffle;
the labeling folds on the bounded lattice via iterated masked
min-propagation over the four axis shifts (the flood-fill machinery of
``tile_enclosed_holes``, with min-label semantics instead of
reachability).  The oracle shares no propagation code: a recursive-CTE
transitive closure over the occupied adjacency graph takes MIN(dst)
per source — reachability-pair volume is Σ size², bounded by the
lattice, not the corpus.

``vopt_histogram_dp`` — the query-optimizer histogram builder: split
the 64 equal-width pre-bins of the event-value (cents) domain into
B = 8 contiguous buckets minimizing the exact integer objective
``Σ_seg (n·Σx² − (Σx)²)`` (the n-scaled within-segment sum of squared
deviations — clearing the 1/n makes every cost an integer, so engine
and oracle compare EXACTLY; n·Σx² reaches ~1e20 at sf0.1, beyond
int64, so the engine folds the DP in Python big ints and the oracle
in HUGEINT, with costs emitted as DECIMAL STRINGS — the
balance_skewness_moments precedent).  The FULL DP table (stage b,
prefix end j) is emitted rather than one backtracked partition —
tie-break-free by construction (the tile_seam_dp precedent).
Distributed shape: pass 1 reduces the global (min, max) cents domain;
pass 2 reduces the bounded 64-bin (n, Σx, Σx²) moment table through
the map-side combine; the O(B·64²) DP folds on the driver.

Reference anchors: raster/tile + DB-internals families (SURVEY.md
§2.3/§2.4); siblings: tile_enclosed_holes (masked-dilation lattice
fold + recursive-CTE oracle), tile_seam_dp (full-DP-table contract),
balance_skewness_moments (HUGEINT/big-int + decimal-string output),
value_histogram (the plain equal-width ancestor).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

COMP_RES = 7          # 128x128 lattice (see docstring for the measurement)
VOPT_PREBINS = 64
VOPT_BUCKETS = 8


# --------------------------------------------------------------------------
# tile_components
# --------------------------------------------------------------------------


def q_tile_components(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, COMP_RES)  # [ix, iy]
    n = lat.shape[0]
    occ = lat > 0
    inf = np.int64(n * n)
    label = np.where(occ, np.arange(n * n, dtype=np.int64).reshape(n, n),
                     inf)
    while True:
        prev = label
        label = prev.copy()
        label[1:, :] = np.minimum(label[1:, :], prev[:-1, :])
        label[:-1, :] = np.minimum(label[:-1, :], prev[1:, :])
        label[:, 1:] = np.minimum(label[:, 1:], prev[:, :-1])
        label[:, :-1] = np.minimum(label[:, :-1], prev[:, 1:])
        label[~occ] = inf  # walls never adopt or relay labels
        if np.array_equal(label, prev):
            break
    ix, iy = np.nonzero(occ)
    comp = label[ix, iy]
    sizes = {}
    for c in comp:
        sizes[int(c)] = sizes.get(int(c), 0) + 1
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(ix.astype(np.int64)),
        "iy": pa.array(iy.astype(np.int64)),
        "comp_id": pa.array(comp, type=pa.int64()),
        "comp_size": pa.array(
            np.array([sizes[int(c)] for c in comp], dtype=np.int64)),
    }))


def _sql_tile_components() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << COMP_RES
    body = _sql_grid_cte(COMP_RES)
    # WITH RECURSIVE must lead, so splice into the grid cte (ext159 pattern)
    return "WITH RECURSIVE " + body[len("WITH "):] + f"""
, cells AS MATERIALIZED (
  SELECT ix * {n} + iy AS id, ix, iy FROM occ
), adj AS MATERIALIZED (
  SELECT a.id AS u, b.id AS v
  FROM cells a JOIN cells b
    ON (abs(a.ix - b.ix) + abs(a.iy - b.iy)) = 1
), reach AS (
  SELECT id AS src, id AS dst FROM cells
  UNION
  SELECT r.src, a.v FROM reach r JOIN adj a ON a.u = r.dst
), comp AS MATERIALIZED (
  SELECT src, MIN(dst) AS comp_id FROM reach GROUP BY 1
), csize AS (
  SELECT comp_id, CAST(COUNT(*) AS BIGINT) AS comp_size
  FROM comp GROUP BY 1
)
SELECT c.ix, c.iy, CAST(m.comp_id AS BIGINT) AS comp_id, s.comp_size
FROM cells c
JOIN comp m ON m.src = c.id
JOIN csize s ON s.comp_id = m.comp_id
"""


# --------------------------------------------------------------------------
# vopt_histogram_dp
# --------------------------------------------------------------------------


def q_vopt_histogram_dp(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    path = f"{sf_dir}/events.parquet"

    # pass 1: global cents domain (one min/max reduce)
    def minmax(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100.0).astype(
            np.int64)
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "lo": pa.array([int(v.min())], type=pa.int64()),
            "hi": pa.array([int(v.max())], type=pa.int64()),
        })

    mm = grouped_aggregate(
        ray.data.read_parquet(path, columns=["value"]).map_batches(
            minmax, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("min", "lo", "lo"), ("max", "hi", "hi")],
    ).to_pandas()
    lo, hi = int(mm["lo"][0]), int(mm["hi"][0])
    span = hi - lo + 1

    # pass 2: bounded 64-bin moment table
    def moments(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100.0).astype(
            np.int64)
        b = (v - lo) * VOPT_PREBINS // span
        t = pa.table({
            "bin": pa.array(b, type=pa.int64()),
            "n": pa.array(np.ones(len(v), dtype=np.int64)),
            "s1": pa.array(v, type=pa.int64()),
            "s2": pa.array(v * v, type=pa.int64()),
        })
        g = t.group_by("bin").aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum")])
        return pa.table({
            "bin": g.column("bin"),
            "n": pc.cast(g.column("n_sum"), pa.int64()),
            "s1": pc.cast(g.column("s1_sum"), pa.int64()),
            "s2": pc.cast(g.column("s2_sum"), pa.int64()),
        })

    mom = grouped_aggregate(
        ray.data.read_parquet(path, columns=["value"]).map_batches(
            moments, batch_format="pyarrow", zero_copy_batch=True),
        ["bin"], [("sum", "n", "n"), ("sum", "s1", "s1"),
                  ("sum", "s2", "s2")],
    ).to_pandas()

    nb = np.zeros(VOPT_PREBINS, dtype=object)
    sb1 = np.zeros(VOPT_PREBINS, dtype=object)
    sb2 = np.zeros(VOPT_PREBINS, dtype=object)
    for r in mom.itertuples():
        nb[int(r.bin)] = int(r.n)
        sb1[int(r.bin)] = int(r.s1)
        sb2[int(r.bin)] = int(r.s2)
    # prefix sums (python ints — the costs exceed int64)
    pn = [0] * (VOPT_PREBINS + 1)
    p1 = [0] * (VOPT_PREBINS + 1)
    p2 = [0] * (VOPT_PREBINS + 1)
    for i in range(VOPT_PREBINS):
        pn[i + 1] = pn[i] + int(nb[i])
        p1[i + 1] = p1[i] + int(sb1[i])
        p2[i + 1] = p2[i] + int(sb2[i])

    def cost(i: int, j: int) -> int:  # bins i..j inclusive
        cn = pn[j + 1] - pn[i]
        c1 = p1[j + 1] - p1[i]
        c2 = p2[j + 1] - p2[i]
        return cn * c2 - c1 * c1

    dp = {(1, j): cost(0, j) for j in range(VOPT_PREBINS)}
    for b in range(2, VOPT_BUCKETS + 1):
        for j in range(b - 1, VOPT_PREBINS):
            dp[(b, j)] = min(
                dp[(b - 1, k)] + cost(k + 1, j)
                for k in range(b - 2, j))
    bs, js, cs = [], [], []
    for (b, j), c in sorted(dp.items()):
        bs.append(b)
        js.append(j)
        cs.append(str(c))
    return ray.data.from_arrow(pa.table({
        "b": pa.array(bs, type=pa.int64()),
        "j": pa.array(js, type=pa.int64()),
        "dp_cost": pa.array(cs, type=pa.string()),
    }))


def _sql_vopt_histogram_dp() -> str:
    B, N = VOPT_BUCKETS, VOPT_PREBINS
    head = f"""
WITH v AS MATERIALIZED (
  SELECT CAST(ROUND(value * 100) AS BIGINT) AS c FROM events
), dom AS MATERIALIZED (
  SELECT MIN(c) AS lo, MAX(c) - MIN(c) + 1 AS span FROM v
), bins AS MATERIALIZED (
  SELECT ((v.c - d.lo) * {N}) // d.span AS bin,
         COUNT(*) AS n, SUM(v.c) AS s1, SUM(v.c * v.c) AS s2
  FROM v, dom d GROUP BY 1
), pref AS MATERIALIZED (
  SELECT g.range AS j,
         CAST(COALESCE(SUM(b.n), 0) AS HUGEINT) AS pn,
         CAST(COALESCE(SUM(b.s1), 0) AS HUGEINT) AS p1,
         CAST(COALESCE(SUM(b.s2), 0) AS HUGEINT) AS p2
  FROM range(0, {N}) g LEFT JOIN bins b ON b.bin <= g.range
  GROUP BY 1
), cost AS MATERIALIZED (
  SELECT lo.i, hi.j,
         (hi.pn - lo.pn) * (hi.p2 - lo.p2)
           - (hi.p1 - lo.p1) * (hi.p1 - lo.p1) AS c
  FROM (SELECT j + 1 AS i, pn, p1, p2 FROM pref
        UNION ALL SELECT 0, 0::HUGEINT, 0::HUGEINT, 0::HUGEINT) lo
  JOIN pref hi ON hi.j >= lo.i
)"""
    parts = [head, f""",
dp_1 AS MATERIALIZED (
  SELECT j, c AS dp FROM cost WHERE i = 0
)"""]
    for b in range(2, B + 1):
        parts.append(f""",
dp_{b} AS MATERIALIZED (
  SELECT c.j, MIN(p.dp + c.c) AS dp
  FROM dp_{b - 1} p JOIN cost c ON c.i = p.j + 1
  WHERE p.j >= {b - 2}
  GROUP BY 1
)""")
    selects = " UNION ALL ".join(
        f"SELECT {b} AS b, j, dp FROM dp_{b}" for b in range(1, B + 1))
    parts.append(f"""
SELECT CAST(b AS BIGINT) AS b, CAST(j AS BIGINT) AS j,
       CAST(dp AS VARCHAR) AS dp_cost
FROM ({selects})""")
    return "".join(parts)


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext165():
    return {
        "tile_components": q_tile_components,
        "vopt_histogram_dp": q_vopt_histogram_dp,
    }


def build_oracles_ext165():
    return {
        "tile_components": _sql_tile_components(),
        "vopt_histogram_dp": _sql_vopt_histogram_dp(),
    }
