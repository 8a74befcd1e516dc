"""Round-3 extension operators, batch 157: exact squared-Euclidean distance
transform + multi-pattern phrase screening.

``tile_sedt`` — the EXACT squared Euclidean distance transform of the
occupied-tile lattice (companion to ``tile_chebyshev_dt``, L2² instead of
L-inf): for every lattice cell the minimum ``dx² + dy²`` to an occupied
tile, all in int64.  The engine exploits separability (the classic
Felzenszwalb-Huttenlocher decomposition): pass 1 computes per-COLUMN
1-D distances to the nearest occupied cell in that column (two linear
scans, INF for empty columns); pass 2 is the 1-D min-convolution
``sedt[x][y] = min_x' (col[x'][y] + (x - x')²)``, folded as a vectorized
(n × n × n) broadcast minimum — exact integer arithmetic throughout, no
float envelope intersections.  The oracle shares nothing: a dense-grid
cross join taking the direct 2-D minimum over occupied tiles (bounded
1024 × ≤1024 pairs at every scale factor).

``phrase_screen_counts`` — the taboo-phrase / policy-screening primitive
of a corpus pipeline: count occurrences of a fixed pattern dictionary as
raw SUBSTRINGS (not word tokens — patterns deliberately include
sub-word fragments like ``"ow"`` that hit ``row``/``window``/``slow``)
across every document, reporting per pattern the matching-doc count and
total hits.  Every pattern is border-free (no proper prefix that is
also a suffix), so occurrences cannot overlap and every left-to-right
counting convention agrees — the engine's ``pyarrow.compute
.count_substring`` and the oracle's ``(LENGTH(text) -
LENGTH(REPLACE(text, pat, ''))) / LENGTH(pat)`` are provably the same
number.  One pruned-column scan, 8-row map-side-combined output.

Reference anchors: raster family + text-screening family (SURVEY.md
§2.3/§2.4); siblings: tile_chebyshev_dt (the L-inf transform),
contamination_check (n-gram membership screening), heavy_hitter_words.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# tile_sedt
# --------------------------------------------------------------------------

_INF = np.int64(10**6)  # > max possible sedt 2*31^2 = 1922


def q_tile_sedt(sf_dir: str):
    from .queries_ext156 import _lattice

    import ray
    lat = _lattice(sf_dir)  # [ix, iy]
    n = lat.shape[0]

    # pass 1: per column x, 1-D distance (in steps) to nearest occupied
    # cell in that column; two linear scans, then square.
    steps = np.where(lat > 0, np.int64(0), _INF)
    for y in range(1, n):
        steps[:, y] = np.minimum(steps[:, y], steps[:, y - 1] + 1)
    for y in range(n - 2, -1, -1):
        steps[:, y] = np.minimum(steps[:, y], steps[:, y + 1] + 1)
    col = np.where(steps >= _INF, _INF, steps * steps)  # [x, y] int64

    # pass 2: min-convolution across x with the (x - x')^2 kernel,
    # vectorized over the bounded lattice.
    xs = np.arange(n, dtype=np.int64)
    dx2 = (xs[:, None] - xs[None, :]) ** 2          # [x, x']
    sedt = (col[None, :, :] + dx2[:, :, None]).min(axis=1)  # [x, y]

    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(gx.ravel(), type=pa.int64()),
        "iy": pa.array(gy.ravel(), type=pa.int64()),
        "sedt": pa.array(sedt.ravel(), type=pa.int64()),
    }))


def _sql_tile_sedt() -> str:
    from .queries_ext156 import _sql_grid_cte

    return _sql_grid_cte() + """
SELECT g.ix, g.iy,
       CAST(MIN((g.ix - o.ix) * (g.ix - o.ix)
                + (g.iy - o.iy) * (g.iy - o.iy)) AS BIGINT) AS sedt
FROM grid g CROSS JOIN occ o
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# phrase_screen_counts
# --------------------------------------------------------------------------

# Border-free patterns only (no proper prefix == suffix): occurrences
# cannot overlap, so all counting conventions agree (see module doc).
SCREEN_PATTERNS = (
    "merge data",
    "join order",
    "slow",
    "ow",
    "art",
    "key",
    "stream big",
    "batch stream",
)


def q_phrase_screen_counts(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def screen(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        pats, docs, hits = [], [], []
        for p in SCREEN_PATTERNS:
            cnt = pc.count_substring(text, p)
            c = cnt.to_numpy(zero_copy_only=False).astype(np.int64)
            pats.append(p)
            docs.append(int((c > 0).sum()))
            hits.append(int(c.sum()))
        return pa.table({
            "pattern": pa.array(pats, type=pa.string()),
            "n_docs": pa.array(docs, type=pa.int64()),
            "total_hits": pa.array(hits, type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(screen, batch_format="pyarrow", zero_copy_batch=True),
        ["pattern"],
        [("sum", "n_docs", "n_docs"), ("sum", "total_hits", "total_hits")],
    )


def _sql_phrase_screen_counts() -> str:
    vals = ", ".join(f"('{p}')" for p in SCREEN_PATTERNS)
    return f"""
WITH pats(pattern) AS (VALUES {vals}),
cnts AS (
  SELECT p.pattern,
         (LENGTH(d.text) - LENGTH(REPLACE(d.text, p.pattern, '')))
           // LENGTH(p.pattern) AS c
  FROM documents d CROSS JOIN pats p
)
SELECT pattern,
       CAST(COUNT(*) FILTER (WHERE c > 0) AS BIGINT) AS n_docs,
       CAST(SUM(c) AS BIGINT) AS total_hits
FROM cnts GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext157():
    return {
        "tile_sedt": q_tile_sedt,
        "phrase_screen_counts": q_phrase_screen_counts,
    }


def build_oracles_ext157():
    return {
        "tile_sedt": _sql_tile_sedt(),
        "phrase_screen_counts": _sql_phrase_screen_counts(),
    }
