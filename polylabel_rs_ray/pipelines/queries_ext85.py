"""Round-3 extension operators, batch 85: Merkle content verification
and grid coverage classification.

``doc_merkle_root`` — the content-addressed integrity structure for
resumable pipelines: leaves are ``md5(doc_id ':' md5(text))`` in
doc_id order, padded to a fixed 512-slot tree with a constant pad
leaf, parents ``md5(left || right)`` level by level, root emitted as
hex.  The engine computes leaf hashes distributed (map-side) and
folds the 9 levels driver-side over the bounded leaf table (each
subtree folds independently at scale); the SQL oracle unrolls the
nine levels as CTEs — the whole verification tree is oracle-pinned.

``cell_coverage_stats`` — raster coverage classification: the
normalized fixture bbox splits into a 4x4 cell grid; each cell is
FULL (clip area == cell area), PARTIAL, or EMPTY, with the covered
area summing EXACTLY to the polygon area (the closure property that
makes the clipping kernel trustworthy).  Reuses the ext65
Sutherland-Hodgman machinery against per-cell windows; constants from
an independent sequential clipping twin.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MERKLE_SLOTS = 512  # 2^9 leaves -> 9 fold levels
PAD_LEAF_SEED = "pad"
GRID_N = 4  # 4x4 coverage grid


# --------------------------------------------------------------------------
# doc_merkle_root
# --------------------------------------------------------------------------


def _md5_hex(s: str) -> str:
    return hashlib.md5(s.encode()).hexdigest()


def q_doc_merkle_root(sf_dir: str):
    import ray

    def leaves(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        hx = [_md5_hex(f"{i}:{_md5_hex(t or '')}")
              for i, t in zip(ids, batch.column("text").to_pylist())]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "leaf": pa.array(hx, type=pa.string()),
        })

    lf = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
        .map_batches(leaves, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # bounded leaf table; subtree folds parallelize at scale
        .sort_values("doc_id")
    )
    hs = lf["leaf"].tolist()[:MERKLE_SLOTS]
    pad = _md5_hex(PAD_LEAF_SEED)
    hs = hs + [pad] * (MERKLE_SLOTS - len(hs))
    n_docs = len(lf)
    while len(hs) > 1:
        hs = [_md5_hex(hs[i] + hs[i + 1]) for i in range(0, len(hs), 2)]
    import pandas as pd

    return pd.DataFrame({
        "n_docs": [np.int64(min(n_docs, MERKLE_SLOTS))],
        "n_slots": [np.int64(MERKLE_SLOTS)],
        "merkle_root": [hs[0]],
    })


def _sql_doc_merkle_root() -> str:
    pad = _md5_hex(PAD_LEAF_SEED)
    levels = []
    prev = "l0"
    n = MERKLE_SLOTS
    i = 0
    while n > 1:
        cur = f"l{i + 1}"
        levels.append(f"""
        {cur} AS (
          SELECT (rn + 1) // 2 AS rn,
                 md5(MAX(CASE WHEN rn % 2 = 1 THEN h END)
                     || MAX(CASE WHEN rn % 2 = 0 THEN h END)) AS h
          FROM {prev} GROUP BY (rn + 1) // 2
        )""")
        prev = cur
        n //= 2
        i += 1
    return f"""
        WITH ranked AS (
          SELECT ROW_NUMBER() OVER (ORDER BY doc_id) AS rn,
                 md5(CAST(doc_id AS VARCHAR) || ':' || md5(text)) AS h
          FROM documents
          ORDER BY doc_id LIMIT {MERKLE_SLOTS}
        ),
        slots AS (SELECT unnest(generate_series(1, {MERKLE_SLOTS})) AS rn),
        l0 AS (
          SELECT s.rn, COALESCE(r.h, '{pad}') AS h
          FROM slots s LEFT JOIN ranked r ON s.rn = r.rn
        ),{','.join(levels)}
        SELECT CAST(LEAST((SELECT COUNT(*) FROM documents),
                          {MERKLE_SLOTS}) AS BIGINT) AS n_docs,
               CAST({MERKLE_SLOTS} AS BIGINT) AS n_slots,
               (SELECT h FROM {prev}) AS merkle_root
    """


# --------------------------------------------------------------------------
# cell_coverage_stats
# --------------------------------------------------------------------------


def _cell_windows(w: float, h: float):
    """The GRID_N x GRID_N cell bounds of a (0,0)-(w,h) bbox — dyadic
    divisions (w, h are dyadic; /4 is exact)."""
    xs = [w * (i / GRID_N) for i in range(GRID_N + 1)]
    ys = [h * (i / GRID_N) for i in range(GRID_N + 1)]
    for iy in range(GRID_N):
        for ix in range(GRID_N):
            yield xs[ix], xs[ix + 1], ys[iy], ys[iy + 1]


def _clip_window(poly: np.ndarray, xlo, xhi, ylo, yhi) -> np.ndarray:
    from .queries_ext65 import _clip_halfplane

    p = _clip_halfplane(poly, 0, xlo, keep_low=False)
    p = _clip_halfplane(p, 0, xhi, keep_low=True)
    p = _clip_halfplane(p, 1, ylo, keep_low=False)
    return _clip_halfplane(p, 1, yhi, keep_low=True)


def _coverage_one(ext: np.ndarray) -> tuple[int, int, int, float]:
    from .queries_ext65 import _shoelace_abs

    poly = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    w = float(ext[:, 0].max())
    h = float(ext[:, 1].max())
    n_full = n_partial = n_empty = 0
    covered = 0.0
    for xlo, xhi, ylo, yhi in _cell_windows(w, h):
        a = _shoelace_abs(_clip_window(poly, xlo, xhi, ylo, yhi))
        cell_area = (xhi - xlo) * (yhi - ylo)
        covered += a
        if a == 0.0:
            n_empty += 1
        elif a == cell_area:
            n_full += 1
        else:
            n_partial += 1
    return n_full, n_partial, n_empty, covered


def q_cell_coverage_stats(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        nf = np.empty(len(polys), dtype=np.int64)
        npart = np.empty(len(polys), dtype=np.int64)
        ne = np.empty(len(polys), dtype=np.int64)
        cov = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            f, p, e, c = _coverage_one(_norm_exterior(rings))
            nf[i], npart[i], ne[i], cov[i] = f, p, e, c
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "n_full": pa.array(nf, type=pa.int64()),
            "n_partial": pa.array(npart, type=pa.int64()),
            "n_empty": pa.array(ne, type=pa.int64()),
            "covered_area": pa.array(cov, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_coverage(ext) -> tuple[int, int, int, float]:
    """Oracle twin: its own sequential scalar clipper against each cell."""
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    w = max(p[0] for p in pts)
    h = max(p[1] for p in pts)

    def clip_seq(pts_in, axis, bound, keep_low):
        out = []
        n = len(pts_in)
        for i in range(n):
            px, py = pts_in[i]
            qx, qy = pts_in[(i + 1) % n]
            pc_ = (px, py)[axis]
            qc = (qx, qy)[axis]
            pin = pc_ <= bound if keep_low else pc_ >= bound
            qin = qc <= bound if keep_low else qc >= bound
            if pin != qin and qc != pc_:
                t = (bound - pc_) / (qc - pc_)
                ix = px + t * (qx - px)
                iy = py + t * (qy - py)
            else:
                ix, iy = 0.0, 0.0
            if axis == 0:
                ix = bound
            else:
                iy = bound
            if qin:
                if not pin:
                    out.append((ix, iy))
                out.append((qx, qy))
            elif pin:
                out.append((ix, iy))
        return out

    def area_seq(p):
        if len(p) < 3:
            return 0.0
        s = 0.0
        for i in range(len(p)):
            x0, y0 = p[i]
            x1, y1 = p[(i + 1) % len(p)]
            s += x0 * y1 - x1 * y0
        return abs(s) / 2.0

    nf = npart = ne = 0
    cov = 0.0
    for xlo, xhi, ylo, yhi in _cell_windows(w, h):
        q = clip_seq(pts, 0, xlo, False)
        if q:
            q = clip_seq(q, 0, xhi, True)
        if q:
            q = clip_seq(q, 1, ylo, False)
        if q:
            q = clip_seq(q, 1, yhi, True)
        a = area_seq(q)
        cell_area = (xhi - xlo) * (yhi - ylo)
        cov += a
        if a == 0.0:
            ne += 1
        elif a == cell_area:
            nf += 1
        else:
            npart += 1
    return nf, npart, ne, cov


def _sql_cell_coverage_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cf, cp, ce, cc = [], [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        nf, npart, ne, cov = _twin_coverage(ext)
        cf.append(f"WHEN {f} THEN {nf}")
        cp.append(f"WHEN {f} THEN {npart}")
        ce.append(f"WHEN {f} THEN {ne}")
        cc.append(f"WHEN {f} THEN {cov!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(cf)} END AS BIGINT) AS n_full,
               CAST(CASE doc_id % {n} {' '.join(cp)} END AS BIGINT)
                 AS n_partial,
               CAST(CASE doc_id % {n} {' '.join(ce)} END AS BIGINT)
                 AS n_empty,
               CASE doc_id % {n} {' '.join(cc)} END AS covered_area
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext85() -> dict:
    return {
        "doc_merkle_root": q_doc_merkle_root,
        "cell_coverage_stats": q_cell_coverage_stats,
    }


def build_oracles_ext85() -> dict:
    return {
        "doc_merkle_root": _sql_doc_merkle_root(),
        "cell_coverage_stats": _sql_cell_coverage_stats(),
    }
