"""Round-3 extension operators, batch 118: fixture tile-IoU matrix +
discrete Hausdorff shape distance.

``fixture_tile_iou`` — the spatial-overlap matrix between fixture
FOOTPRINTS on the render lattice: per dyadic-fixture pair (fa < fb),
the number of 32×32 tiles covered by BOTH fixtures' document bboxes
and by EITHER (exact |A∩B| / |A∪B| as separate int64 columns — no
float division).  The geometry side reuses the coverage
rasterization fan-out (queries_ext.py::_coverage_stage); distinct
(fixture, tile) pairs collapse through the map-side combine to the
bounded fixtures×1024 domain; the pair fan-out is per tile with
C(4,2)=6 max pairs (the source_overlap_matrix discipline on a spatial
key).  Oracle: same bbox CTE + generate_series cover, self-joined.

``hausdorff_fixture_pairs`` — per document, the directed discrete
Hausdorff distances² between the document's bbox-normalized exterior
ring and the NEXT dyadic fixture's normalized exterior (cyclic order
in DYADIC_FIXTURES): ``fwd = max_p min_q |p−q|²`` and the reverse.
A per-row vectorized kernel (one (n_p, n_q) broadcastered distance
matrix per doc against a module-constant target vertex table — no
Python inner loop); on dyadic coordinates every square/sum is
fp-exact, so values are per-fixture constants and the oracle replays
them via CASE — with the constants computed by an INDEPENDENT
pure-Python all-pairs twin (the post-ADVICE diameter_stats
discipline: the SQL must not share code with the kernel under test).

Reference anchors: tile assignment + shape-metrology surface
(SURVEY.md §2.3); siblings: doc_tile_coverage, source_overlap_matrix,
diameter_stats/min_width_stats (calipers family).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources import docs as docs_mod
from ..sources.fixtures import FIXTURE_CYCLE, FIXTURES
from .queries_ext import DYADIC_IDX, _bbox_stage, _dyadic_rings_ds, \
    _norm_exterior


# --------------------------------------------------------------------------
# fixture_tile_iou
# --------------------------------------------------------------------------


def q_fixture_tile_iou(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries_ext import _coverage_stage

    import ray
    cov = _dyadic_rings_ds(sf_dir).map_batches(
        _bbox_stage, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(_coverage_stage, batch_format="pyarrow",
                  zero_copy_batch=True)

    def fixture_tiles(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_num").to_numpy().astype(np.int64)
        t = pa.table({
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "tile_id": batch.column("tile_id"),
        })
        out = t.group_by(["fixture_idx", "tile_id"]).aggregate(
            [("tile_id", "count")])
        return pa.table({
            "fixture_idx": out.column("fixture_idx"),
            "tile_id": out.column("tile_id"),
            "one": pa.array(np.ones(out.num_rows, dtype=np.int64)),
        })

    # bounded: |dyadic fixtures| x 1024 tiles after the combine
    ft = grouped_aggregate(
        cov.map_batches(fixture_tiles, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["fixture_idx", "tile_id"], [("sum", "one", "n")],
    ).to_pandas()

    sizes = ft.groupby("fixture_idx")["tile_id"].nunique().to_dict()
    by_tile: dict[int, list[int]] = {}
    for r in ft.itertuples():
        by_tile.setdefault(int(r.tile_id), []).append(int(r.fixture_idx))
    inter: dict[tuple[int, int], int] = {}
    for fixtures in by_tile.values():
        fixtures.sort()
        for i in range(len(fixtures)):
            for j in range(i + 1, len(fixtures)):
                k = (fixtures[i], fixtures[j])
                inter[k] = inter.get(k, 0) + 1
    fas, fbs, inters, unions = [], [], [], []
    idx = sorted(sizes)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            fa, fb = idx[i], idx[j]
            it = inter.get((fa, fb), 0)
            fas.append(fa)
            fbs.append(fb)
            inters.append(it)
            unions.append(sizes[fa] + sizes[fb] - it)
    return ray.data.from_arrow(pa.table({
        "fix_a": pa.array(fas, type=pa.int64()),
        "fix_b": pa.array(fbs, type=pa.int64()),
        "inter_tiles": pa.array(inters, type=pa.int64()),
        "union_tiles": pa.array(unions, type=pa.int64()),
    }))


def _sql_fixture_tile_iou() -> str:
    from .queries_ext import _sql_doc_tile_coverage

    n_fix = docs_mod.N_FIXTURES
    return f"""
        WITH cov AS ({_sql_doc_tile_coverage()}),
        ft AS (
            SELECT DISTINCT doc_num % {n_fix} AS fixture_idx, tile_id
            FROM cov
        ),
        sizes AS (
            SELECT fixture_idx, CAST(COUNT(*) AS BIGINT) AS n_tiles
            FROM ft GROUP BY fixture_idx
        ),
        inter AS (
            SELECT a.fixture_idx AS fix_a, b.fixture_idx AS fix_b,
                   CAST(COUNT(*) AS BIGINT) AS inter_tiles
            FROM ft a JOIN ft b
              ON a.tile_id = b.tile_id AND a.fixture_idx < b.fixture_idx
            GROUP BY 1, 2
        )
        SELECT CAST(sa.fixture_idx AS BIGINT) AS fix_a,
               CAST(sb.fixture_idx AS BIGINT) AS fix_b,
               COALESCE(i.inter_tiles, 0) AS inter_tiles,
               sa.n_tiles + sb.n_tiles - COALESCE(i.inter_tiles, 0)
                   AS union_tiles
        FROM sizes sa JOIN sizes sb ON sa.fixture_idx < sb.fixture_idx
        LEFT JOIN inter i
          ON i.fix_a = sa.fixture_idx AND i.fix_b = sb.fixture_idx
    """


# --------------------------------------------------------------------------
# hausdorff_fixture_pairs
# --------------------------------------------------------------------------


def _fixture_norm_ext(name: str) -> np.ndarray:
    ext = np.asarray(FIXTURES[name].rings[0], dtype=np.float64)
    return ext - ext.min(axis=0)


def _next_dyadic(fix_idx: int) -> int:
    pos = DYADIC_IDX.index(fix_idx)
    return DYADIC_IDX[(pos + 1) % len(DYADIC_IDX)]


_TARGETS: dict[int, np.ndarray] = {}


def _target_for(fix_idx: int) -> np.ndarray:
    if fix_idx not in _TARGETS:
        name = FIXTURE_CYCLE[_next_dyadic(fix_idx)]
        _TARGETS[fix_idx] = _fixture_norm_ext(name)
    return _TARGETS[fix_idx]


def _hausdorff_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    fwd = np.empty(len(polys), dtype=np.float64)
    rev = np.empty(len(polys), dtype=np.float64)
    for i, rings in enumerate(polys):
        p = _norm_exterior(rings)
        q = _target_for(int(doc[i]) % docs_mod.N_FIXTURES)
        # (n_p, n_q) exact squared distances, one broadcast — no row loop
        dx = p[:, 0][:, None] - q[:, 0][None, :]
        dy = p[:, 1][:, None] - q[:, 1][None, :]
        d2 = dx * dx + dy * dy
        fwd[i] = d2.min(axis=1).max()
        rev[i] = d2.min(axis=0).max()
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "haus_sq_fwd": pa.array(fwd, type=pa.float64()),
        "haus_sq_rev": pa.array(rev, type=pa.float64()),
    })


def q_hausdorff_fixture_pairs(sf_dir: str):
    return _dyadic_rings_ds(sf_dir).map_batches(
        _hausdorff_stage, batch_format="pyarrow", zero_copy_batch=True)


def _independent_hausdorff(p_pts: list, q_pts: list) -> tuple[float, float]:
    """Oracle-side twin: pure-Python all-pairs min/max loops, no numpy,
    no shared code with the batch kernel."""
    def directed(a, b):
        worst = 0.0
        for (ax, ay) in a:
            best = None
            for (bx, by) in b:
                d = (ax - bx) * (ax - bx) + (ay - by) * (ay - by)
                if best is None or d < best:
                    best = d
            if best > worst:
                worst = best
        return worst

    return directed(p_pts, q_pts), directed(q_pts, p_pts)


def _sql_hausdorff_fixture_pairs() -> str:
    n = docs_mod.N_FIXTURES
    cf, cr = [], []
    for fix_idx in DYADIC_IDX:
        ext = _fixture_norm_ext(FIXTURE_CYCLE[fix_idx])
        tgt = _fixture_norm_ext(FIXTURE_CYCLE[_next_dyadic(fix_idx)])
        p = [(float(x), float(y)) for x, y in ext]
        q = [(float(x), float(y)) for x, y in tgt]
        fwd, rev = _independent_hausdorff(p, q)
        cf.append(f"WHEN {fix_idx} THEN {fwd!r}")
        cr.append(f"WHEN {fix_idx} THEN {rev!r}")
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num,
               doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cf)} END AS haus_sq_fwd,
               CASE doc_id % {n} {' '.join(cr)} END AS haus_sq_rev
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext118() -> dict:
    return {
        "fixture_tile_iou": q_fixture_tile_iou,
        "hausdorff_fixture_pairs": q_hausdorff_fixture_pairs,
    }


def build_oracles_ext118() -> dict:
    return {
        "fixture_tile_iou": _sql_fixture_tile_iou(),
        "hausdorff_fixture_pairs": _sql_hausdorff_fixture_pairs(),
    }
