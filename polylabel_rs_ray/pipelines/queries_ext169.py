"""Round-3 extension operators, batch 169: geodesic tile distance +
KWIC context matrix.

``tile_geodesic_dist`` — the within-terrain routing metric: for every
OCCUPIED cell of the res-5 render lattice (32×32), the 4-connected
BFS hop distance THROUGH occupied cells from the source tile (most
label points, ties to min (ix, iy) — the tile_visibility source
rule), with −1 for occupied cells in other components (unreachable).
Res 5 is the resolution where the SOURCE sits in a rich component at
every scale factor (measured: reach 10/28 cells maxd 7 at sf0.001,
69/69 maxd 15 at sf0.1; at res 6/7 the max-count tile is an isolated
singleton at one sf or another and the metric collapses).  Geodesic vs the
straight-line metrics completes the triptych: tile_visibility
(line-of-sight), tile_chebyshev/sedt (free-space distance), this
(terrain-constrained distance).  Engine: the occupied set comes from
the distributed tile shuffle; the BFS runs as masked frontier
dilation on the bounded lattice.  The oracle replays as a
recursive-CTE breadth expansion with MIN(depth) per cell — no
frontier logic shared.

``kwic_context_matrix`` — the concordance (KeyWord-In-Context)
collocation table: the (previous word, next word) count matrix around
every occurrence of the TARGET word, where the target is chosen from
the data (highest global frequency, ties lexicographic — emitted in
every row so the choice itself is value-checked); sentence edges take
the '<s>' / '</s>' sentinels.  Distributed shape: pass 1 is the
map-side-combined word-frequency reduce (bounded generator
vocabulary); pass 2 re-scans the corpus vectorized — Arrow split
offsets give doc boundaries, one flat numpy mask finds target
occurrences, index ±1 with boundary sentinels builds contexts, and
the bounded (vocab+2)² context matrix reduces through the combine.
The oracle replays with list indexing over a position range-join.

Reference anchors: raster/tile + text-analytics families (SURVEY.md
§2.3/§2.4); siblings: tile_components / tile_enclosed_holes (lattice
folds + recursive oracles), tile_visibility (source rule), pmi_bigrams
/ cooccurrence_window_counts (word-position machinery).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

GEO_RES = 5
BOS, EOS = "<s>", "</s>"


# --------------------------------------------------------------------------
# tile_geodesic_dist
# --------------------------------------------------------------------------


def q_tile_geodesic_dist(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, GEO_RES)
    n = lat.shape[0]
    occ = lat > 0
    ox, oy = np.nonzero(occ)
    cnt = lat[ox, oy]
    order = np.lexsort((oy, ox, -cnt))
    sx, sy = int(ox[order[0]]), int(oy[order[0]])

    inf = np.int64(n * n)
    dist = np.full(lat.shape, inf, dtype=np.int64)
    dist[sx, sy] = 0
    frontier = np.zeros(lat.shape, dtype=bool)
    frontier[sx, sy] = True
    d = 0
    while frontier.any():
        d += 1
        grow = np.zeros(lat.shape, dtype=bool)
        grow[1:, :] |= frontier[:-1, :]
        grow[:-1, :] |= frontier[1:, :]
        grow[:, 1:] |= frontier[:, :-1]
        grow[:, :-1] |= frontier[:, 1:]
        frontier = grow & occ & (dist == inf)
        dist[frontier] = d
    out = dist[ox, oy]
    out = np.where(out == inf, -1, out)
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(ox.astype(np.int64)),
        "iy": pa.array(oy.astype(np.int64)),
        "geo_dist": pa.array(out, type=pa.int64()),
    }))


def _sql_tile_geodesic_dist() -> str:
    from .queries_ext156 import _sql_grid_cte

    body = _sql_grid_cte(GEO_RES)
    n = 1 << GEO_RES
    return "WITH RECURSIVE " + body[len("WITH "):] + f"""
, cells AS MATERIALIZED (
  SELECT ix * {n} + iy AS id, ix, iy, c FROM occ
), src AS MATERIALIZED (
  SELECT id FROM cells ORDER BY c DESC, ix, iy LIMIT 1
), adj AS MATERIALIZED (
  SELECT a.id AS u, b.id AS v
  FROM cells a JOIN cells b
    ON (abs(a.ix - b.ix) + abs(a.iy - b.iy)) = 1
), walk AS (
  -- depth bound = #occupied cells: any shortest path is shorter, and the
  -- bound terminates the (cell, d) row generation the UNION dedup alone
  -- cannot stop
  SELECT id AS cell, 0 AS d FROM src
  UNION
  SELECT a.v, w.d + 1 FROM walk w JOIN adj a ON a.u = w.cell
  WHERE w.d < (SELECT COUNT(*) FROM cells)
), best AS (
  SELECT cell, MIN(d) AS d FROM walk GROUP BY 1
)
SELECT c.ix, c.iy,
       CAST(COALESCE(b.d, -1) AS BIGINT) AS geo_dist
FROM cells c LEFT JOIN best b ON b.cell = c.id
"""


# --------------------------------------------------------------------------
# kwic_context_matrix
# --------------------------------------------------------------------------


def q_kwic_context_matrix(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    path = f"{sf_dir}/documents.parquet"

    def words(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        return pa.table({
            "w": toks,
            "one": pa.array(np.ones(len(toks), dtype=np.int64)),
        })

    freq = grouped_aggregate(
        ray.data.read_parquet(path, columns=["text"]).map_batches(
            words, batch_format="pyarrow", zero_copy_batch=True),
        ["w"], [("sum", "one", "freq")],
    ).to_pandas()  # bounded vocabulary
    freq = freq.sort_values(["freq", "w"], ascending=[False, True])
    target = str(freq["w"].iloc[0])

    def contexts(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column("text"), " ")
        split = split.combine_chunks() if hasattr(split, "combine_chunks") \
            else split
        flat = np.asarray(split.flatten().to_pylist(), dtype=object)
        offs = np.asarray(split.offsets.to_numpy(), dtype=np.int64)
        starts = offs[:-1]
        ends = offs[1:]
        doc_start = np.repeat(starts, ends - starts)
        doc_end = np.repeat(ends, ends - starts)
        occ = np.flatnonzero(flat == target)
        prev = np.where(occ > doc_start[occ], flat[np.maximum(occ - 1, 0)],
                        BOS)
        nxt = np.where(occ < doc_end[occ] - 1,
                       flat[np.minimum(occ + 1, len(flat) - 1)], EOS)
        t = pa.table({
            "prev_word": pa.array(prev.tolist(), type=pa.string()),
            "next_word": pa.array(nxt.tolist(), type=pa.string()),
            "one": pa.array(np.ones(len(occ), dtype=np.int64)),
        })
        g = t.group_by(["prev_word", "next_word"]).aggregate(
            [("one", "sum")])
        return pa.table({
            "target": pa.array([target] * g.num_rows, type=pa.string()),
            "prev_word": g.column("prev_word"),
            "next_word": g.column("next_word"),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(path, columns=["text"]).map_batches(
            contexts, batch_format="pyarrow", zero_copy_batch=True),
        ["target", "prev_word", "next_word"], [("sum", "n", "n")],
    )


SQL_KWIC_CONTEXT_MATRIX = f"""
WITH freq AS MATERIALIZED (
  SELECT w, COUNT(*) AS freq
  FROM (SELECT UNNEST(string_split(text, ' ')) AS w FROM documents)
  GROUP BY 1
), target AS MATERIALIZED (
  SELECT w FROM freq ORDER BY freq DESC, w LIMIT 1
), dw AS MATERIALIZED (
  SELECT string_split(text, ' ') AS l FROM documents
), pos AS (
  SELECT d.l, r.range AS i
  FROM dw d JOIN range(1, 256) r ON r.range <= len(d.l)
)
SELECT t.w AS target,
       CASE WHEN p.i > 1 THEN p.l[p.i - 1] ELSE '{BOS}' END AS prev_word,
       CASE WHEN p.i < len(p.l) THEN p.l[p.i + 1] ELSE '{EOS}' END
         AS next_word,
       CAST(COUNT(*) AS BIGINT) AS n
FROM pos p, target t
WHERE p.l[p.i] = t.w
GROUP BY 1, 2, 3
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext169():
    return {
        "tile_geodesic_dist": q_tile_geodesic_dist,
        "kwic_context_matrix": q_kwic_context_matrix,
    }


def build_oracles_ext169():
    return {
        "tile_geodesic_dist": _sql_tile_geodesic_dist(),
        "kwic_context_matrix": SQL_KWIC_CONTEXT_MATRIX,
    }
