"""Round-3 extension operators, batch 86: Pick's theorem audit and
lexical richness.

``picks_theorem_audit`` — the number-theoretic geometry check: for
each integer-vertex exterior ring, the interior lattice-point count I
(ray-crossing parity per lattice point — exact integer comparisons),
the boundary lattice-point count B (Σ gcd(|dx|, |dy|) per edge), the
shoelace area A, and whether Pick's identity ``A = I + B/2 - 1``
holds (it must for every simple integer polygon — a deep invariant
that catches PIP and area bugs simultaneously).  Degenerate
(zero-area) rings report the counts with ``picks_holds = false``.
Exterior ring only; constants from an independent sequential twin.

``hapax_stats`` — vocabulary richness per source: token count, type
count (distinct words), and hapax legomena (words occurring exactly
once within the source) — the lexical-diversity profile corpus
curation reads before mixing sources.  Bounded source x vocabulary
domain.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# picks_theorem_audit
# --------------------------------------------------------------------------


def _pick_counts(ext: np.ndarray) -> tuple[float, int, int, bool]:
    """(area, interior, boundary, picks_holds) for an integer-vertex ring,
    vectorized parity PIP over the bbox lattice."""
    pts = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    x, y = pts[:, 0], pts[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    area = abs(float(np.sum(x * y1 - x1 * y))) / 2.0
    # boundary lattice points: sum of gcds over edges (integer vertices)
    b = int(sum(math.gcd(int(abs(dx)), int(abs(dy)))
                for dx, dy in zip(x1 - x, y1 - y) if dx != 0 or dy != 0))
    # interior: parity ray crossing for every bbox lattice point, boundary
    # membership excluded via the on-segment test
    xmin, xmax = int(x.min()), int(x.max())
    ymin, ymax = int(y.min()), int(y.max())
    gx, gy = np.meshgrid(np.arange(xmin, xmax + 1),
                         np.arange(ymin, ymax + 1))
    gx = gx.ravel().astype(np.float64)
    gy = gy.ravel().astype(np.float64)
    inside = np.zeros(len(gx), dtype=bool)
    on_edge = np.zeros(len(gx), dtype=bool)
    for i in range(len(pts)):
        ax, ay = x[i], y[i]
        bx, by = x1[i], y1[i]
        # on-segment: collinear + within bbox of the edge
        cross = (bx - ax) * (gy - ay) - (by - ay) * (gx - ax)
        within = ((np.minimum(ax, bx) <= gx) & (gx <= np.maximum(ax, bx))
                  & (np.minimum(ay, by) <= gy) & (gy <= np.maximum(ay, by)))
        on_edge |= (cross == 0.0) & within
        # parity crossing (half-open in y so vertices count once)
        cond = (ay > gy) != (by > gy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (gy - ay) * (bx - ax) / (by - ay)
        inside ^= cond & (gx < np.where(cond, xint, np.inf))
    interior = int((inside & ~on_edge).sum())
    holds = area == interior + b / 2.0 - 1.0
    return area, interior, b, holds


def q_picks_theorem_audit(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        area = np.empty(len(polys), dtype=np.float64)
        inter = np.empty(len(polys), dtype=np.int64)
        bound = np.empty(len(polys), dtype=np.int64)
        holds = np.empty(len(polys), dtype=bool)
        for i, rings in enumerate(polys):
            a, it, b, h = _pick_counts(_norm_exterior(rings))
            area[i], inter[i], bound[i], holds[i] = a, it, b, h
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "area": pa.array(area, type=pa.float64()),
            "n_interior": pa.array(inter, type=pa.int64()),
            "n_boundary": pa.array(bound, type=pa.int64()),
            "picks_holds": pa.array(holds, type=pa.bool_()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_pick_counts(ext) -> tuple[float, int, int, bool]:
    """Oracle twin: sequential scalar lattice scan, its own PIP (winding
    via crossing count instead of parity xor)."""
    pts = [(float(px), float(py)) for px, py in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    n = len(pts)
    s = 0.0
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    area = abs(s) / 2.0
    b = 0
    for i in range(n):
        dx = int(abs(pts[(i + 1) % n][0] - pts[i][0]))
        dy = int(abs(pts[(i + 1) % n][1] - pts[i][1]))
        if dx or dy:
            b += math.gcd(dx, dy)
    xmin = int(min(p[0] for p in pts))
    xmax = int(max(p[0] for p in pts))
    ymin = int(min(p[1] for p in pts))
    ymax = int(max(p[1] for p in pts))
    interior = 0
    for gx in range(xmin, xmax + 1):
        for gy in range(ymin, ymax + 1):
            on = False
            crossings = 0
            for i in range(n):
                ax, ay = pts[i]
                bx, by = pts[(i + 1) % n]
                cross = (bx - ax) * (gy - ay) - (by - ay) * (gx - ax)
                if (cross == 0.0
                        and min(ax, bx) <= gx <= max(ax, bx)
                        and min(ay, by) <= gy <= max(ay, by)):
                    on = True
                    break
                if (ay > gy) != (by > gy):
                    xint = ax + (gy - ay) * (bx - ax) / (by - ay)
                    if gx < xint:
                        crossings += 1
            if not on and crossings % 2 == 1:
                interior += 1
    holds = area == interior + b / 2.0 - 1.0
    return area, interior, b, holds


def _sql_picks_theorem_audit() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    ca, ci, cb, ch = [], [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        a, it, b, h = _twin_pick_counts(ext)
        ca.append(f"WHEN {f} THEN {a!r}")
        ci.append(f"WHEN {f} THEN {it}")
        cb.append(f"WHEN {f} THEN {b}")
        ch.append(f"WHEN {f} THEN {str(h).upper()}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(ca)} END AS area,
               CAST(CASE doc_id % {n} {' '.join(ci)} END AS BIGINT)
                 AS n_interior,
               CAST(CASE doc_id % {n} {' '.join(cb)} END AS BIGINT)
                 AS n_boundary,
               CASE doc_id % {n} {' '.join(ch)} END AS picks_holds
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# hapax_stats
# --------------------------------------------------------------------------


def q_hapax_stats(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def counts(batch: pa.Table) -> pa.Table:
        srcs: list[str] = []
        words: list[str] = []
        for s, t in zip(batch.column("source").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = (t or "").lower().split()
            srcs.extend([s] * len(toks))
            words.extend(toks)
        tbl = pa.table({
            "source": pa.array(srcs, type=pa.string()),
            "word": pa.array(words, type=pa.string()),
        })
        out = tbl.group_by(["source", "word"]).aggregate([("word", "count")])
        return pa.table({
            "source": out.column("source"),
            "word": out.column("word"),
            "c": pc.cast(out.column("word_count"), pa.int64()),
        })

    sw = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["source", "text"])
        .map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "word"], [("sum", "c", "c")],
    ).to_pandas()  # bounded: source x vocabulary

    g = sw.groupby("source").agg(
        n_tokens=("c", "sum"),
        n_types=("c", "size"),
        n_hapax=("c", lambda s: int((s == 1).sum())),
    ).reset_index()
    for c in ("n_tokens", "n_types", "n_hapax"):
        g[c] = g[c].astype("int64")
    return g.sort_values("source").reset_index(drop=True)


SQL_HAPAX_STATS = r"""
WITH toks AS (
    SELECT source, w AS word
    FROM (SELECT source, regexp_extract_all(lower(text), '\S+') AS t
          FROM documents),
         LATERAL (SELECT unnest(t) AS w)
),
sw AS (
    SELECT source, word, COUNT(*) AS c FROM toks GROUP BY source, word
)
SELECT source,
       CAST(SUM(c) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax
FROM sw GROUP BY source
"""


def build_queries_ext86() -> dict:
    return {
        "picks_theorem_audit": q_picks_theorem_audit,
        "hapax_stats": q_hapax_stats,
    }


def build_oracles_ext86() -> dict:
    return {
        "picks_theorem_audit": _sql_picks_theorem_audit(),
        "hapax_stats": SQL_HAPAX_STATS,
    }
