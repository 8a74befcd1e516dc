"""Round-3 extension operators, batch 172: geodesic Voronoi partition +
greedy bigram decode.

``tile_geodesic_voronoi`` — the multi-facility assignment on terrain:
every occupied res-5 cell is assigned to the nearest of the TOP-3
source tiles (by label count, ties (ix, iy) — the ext158/169 source
rule, extended to ranks 0..2) under GEODESIC distance through
occupied cells; distance ties resolve to the smallest source rank,
unreachable-from-all cells take (-1, -1).  Engine: three masked-
dilation BFS fields over the bounded lattice, then one vectorized
argmin over (dist, rank).  Oracle: three recursive-CTE walks (the
ext169 shape, machine-generated per source) and a per-cell
least-(d, rank) pick — structurally different from the frontier
fields.  Completes the tile-metric suite: visibility, free-space
distance, single-source geodesic, now the geodesic partition.

``greedy_bigram_decode`` — the argmax language-model decode over the
corpus bigram table: starting at the '<s>' sentinel, repeatedly take
the highest-count successor (ties lexicographic), emitting each
transition (step, src_w, dst_w, n) until '</s>' or DECODE_CAP steps
(greedy decodes cycle; the cap is part of the contract).  Engine:
distributed (src, dst) bigram counts (BOS/EOS framed per document)
through the map-side combine, then the bounded greedy walk.  Oracle:
the bigram CTE + DECODE_CAP unrolled MATERIALIZED pick-CTEs, each an
ORDER BY n DESC, dst LIMIT 1 step guarded by "previous pick was not
EOS" — the SQL replay of beam-width-1 decoding.

Reference anchors: raster/tile + text-generation families (SURVEY.md
§2.3/§2.4); siblings: tile_geodesic_dist (walk oracle machinery),
tile_components, top_bigrams / pmi_bigrams (bigram counting),
vocab_set_cover (bounded greedy with recursive-pick oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

VOR_RES = 5
N_SOURCES = 3
DECODE_CAP = 20
BOS, EOS = "<s>", "</s>"


# --------------------------------------------------------------------------
# tile_geodesic_voronoi
# --------------------------------------------------------------------------


def _bfs_field(occ: np.ndarray, sx: int, sy: int) -> np.ndarray:
    n = occ.shape[0]
    inf = np.int64(n * n)
    dist = np.full(occ.shape, inf, dtype=np.int64)
    dist[sx, sy] = 0
    frontier = np.zeros(occ.shape, dtype=bool)
    frontier[sx, sy] = True
    d = 0
    while frontier.any():
        d += 1
        grow = np.zeros(occ.shape, dtype=bool)
        grow[1:, :] |= frontier[:-1, :]
        grow[:-1, :] |= frontier[1:, :]
        grow[:, 1:] |= frontier[:, :-1]
        grow[:, :-1] |= frontier[:, 1:]
        frontier = grow & occ & (dist == inf)
        dist[frontier] = d
    return dist


def q_tile_geodesic_voronoi(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, VOR_RES)
    n = lat.shape[0]
    occ = lat > 0
    ox, oy = np.nonzero(occ)
    cnt = lat[ox, oy]
    order = np.lexsort((oy, ox, -cnt))
    srcs = [(int(ox[order[k]]), int(oy[order[k]]))
            for k in range(min(N_SOURCES, len(order)))]
    inf = np.int64(n * n)
    fields = np.stack([_bfs_field(occ, sx, sy) for sx, sy in srcs])
    best_d = fields.min(axis=0)
    best_k = fields.argmin(axis=0)  # argmin takes the FIRST min: rank tie
    vor_src = np.where(best_d < inf, best_k, -1)
    vor_dist = np.where(best_d < inf, best_d, -1)
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(ox.astype(np.int64)),
        "iy": pa.array(oy.astype(np.int64)),
        "vor_src": pa.array(vor_src[ox, oy], type=pa.int64()),
        "vor_dist": pa.array(vor_dist[ox, oy], type=pa.int64()),
    }))


def _sql_tile_geodesic_voronoi() -> str:
    from .queries_ext156 import _sql_grid_cte

    body = _sql_grid_cte(VOR_RES)
    n = 1 << VOR_RES
    parts = ["WITH RECURSIVE " + body[len("WITH "):] + f"""
, cells AS MATERIALIZED (
  SELECT ix * {n} + iy AS id, ix, iy, c FROM occ
), ranked AS MATERIALIZED (
  SELECT id, ROW_NUMBER() OVER (ORDER BY c DESC, ix, iy) - 1 AS rk
  FROM cells QUALIFY rk < {N_SOURCES}
), adj AS MATERIALIZED (
  SELECT a.id AS u, b.id AS v
  FROM cells a JOIN cells b
    ON (abs(a.ix - b.ix) + abs(a.iy - b.iy)) = 1
)"""]
    for k in range(N_SOURCES):
        parts.append(f""",
walk_{k} AS (
  SELECT id AS cell, 0 AS d FROM ranked WHERE rk = {k}
  UNION
  SELECT a.v, w.d + 1 FROM walk_{k} w JOIN adj a ON a.u = w.cell
  WHERE w.d < (SELECT COUNT(*) FROM cells)
), best_{k} AS MATERIALIZED (
  SELECT cell, MIN(d) AS d FROM walk_{k} GROUP BY 1
)""")
    unions = " UNION ALL ".join(
        f"SELECT cell, d, {k} AS rk FROM best_{k}"
        for k in range(N_SOURCES))
    parts.append(f""",
all_d AS MATERIALIZED ({unions}),
pick AS (
  SELECT cell, d, rk,
         ROW_NUMBER() OVER (PARTITION BY cell ORDER BY d, rk) AS rn
  FROM all_d
)
SELECT c.ix, c.iy,
       CAST(COALESCE(p.rk, -1) AS BIGINT) AS vor_src,
       CAST(COALESCE(p.d, -1) AS BIGINT) AS vor_dist
FROM cells c
LEFT JOIN pick p ON p.cell = c.id AND p.rn = 1
""")
    return "".join(parts)


# --------------------------------------------------------------------------
# greedy_bigram_decode
# --------------------------------------------------------------------------


def q_greedy_bigram_decode(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def bigrams(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column("text"), " ")
        split = split.combine_chunks() if isinstance(
            split, pa.ChunkedArray) else split
        flat = np.asarray(split.flatten().to_pylist(), dtype=object)
        offs = split.offsets.to_numpy().astype(np.int64)
        lens = np.diff(offs)
        src = np.concatenate([
            np.asarray([BOS] * len(lens), dtype=object),   # BOS -> w0
            flat,                                          # wi -> next/EOS
        ])
        is_last = np.zeros(len(flat), dtype=bool)
        is_last[offs[1:] - 1] = True
        nxt = np.where(is_last, EOS, np.roll(flat, -1))
        dst = np.concatenate([flat[offs[:-1]], nxt])
        t = pa.table({
            "src_w": pa.array(src.tolist(), type=pa.string()),
            "dst_w": pa.array(dst.tolist(), type=pa.string()),
            "one": pa.array(np.ones(len(src), dtype=np.int64)),
        })
        g = t.group_by(["src_w", "dst_w"]).aggregate([("one", "sum")])
        return pa.table({
            "src_w": g.column("src_w"),
            "dst_w": g.column("dst_w"),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
        })

    bg = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]).map_batches(
            bigrams, batch_format="pyarrow", zero_copy_batch=True),
        ["src_w", "dst_w"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: (vocab+1) x (vocab+1)

    table: dict[str, tuple[str, int]] = {}
    for r in bg.sort_values(["src_w", "n", "dst_w"],
                            ascending=[True, False, True]).itertuples():
        if r.src_w not in table:
            table[r.src_w] = (r.dst_w, int(r.n))
    steps, srcs_, dsts, ns = [], [], [], []
    cur = BOS
    for step in range(1, DECODE_CAP + 1):
        if cur == EOS or cur not in table:
            break
        dst, cnt = table[cur]
        steps.append(step)
        srcs_.append(cur)
        dsts.append(dst)
        ns.append(cnt)
        cur = dst
    return ray.data.from_arrow(pa.table({
        "step": pa.array(steps, type=pa.int64()),
        "src_w": pa.array(srcs_, type=pa.string()),
        "dst_w": pa.array(dsts, type=pa.string()),
        "n": pa.array(ns, type=pa.int64()),
    }))


def _sql_greedy_bigram_decode() -> str:
    head = f"""
WITH toks AS MATERIALIZED (
  SELECT string_split(text, ' ') AS l FROM documents
), bg AS MATERIALIZED (
  SELECT src_w, dst_w, CAST(COUNT(*) AS BIGINT) AS n FROM (
    SELECT '{BOS}' AS src_w, l[1] AS dst_w FROM toks
    UNION ALL
    SELECT l[r.range], CASE WHEN r.range = len(l) THEN '{EOS}'
                            ELSE l[r.range + 1] END
    FROM toks, range(1, 256) r WHERE r.range <= len(l)
  ) GROUP BY 1, 2
), pick_1 AS MATERIALIZED (
  SELECT 1 AS step, src_w, dst_w, n FROM bg
  WHERE src_w = '{BOS}' ORDER BY n DESC, dst_w LIMIT 1
)"""
    parts = [head]
    for i in range(2, DECODE_CAP + 1):
        parts.append(f""",
pick_{i} AS MATERIALIZED (
  SELECT {i} AS step, b.src_w, b.dst_w, b.n
  FROM bg b JOIN pick_{i - 1} p ON b.src_w = p.dst_w
  WHERE p.dst_w <> '{EOS}'
  ORDER BY b.n DESC, b.dst_w LIMIT 1
)""")
    unions = " UNION ALL ".join(
        f"SELECT * FROM pick_{i}" for i in range(1, DECODE_CAP + 1))
    parts.append(f"""
SELECT CAST(step AS BIGINT) AS step, src_w, dst_w, n FROM ({unions})""")
    return "".join(parts)


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext172():
    return {
        "tile_geodesic_voronoi": q_tile_geodesic_voronoi,
        "greedy_bigram_decode": q_greedy_bigram_decode,
    }


def build_oracles_ext172():
    return {
        "tile_geodesic_voronoi": _sql_tile_geodesic_voronoi(),
        "greedy_bigram_decode": _sql_greedy_bigram_decode(),
    }
