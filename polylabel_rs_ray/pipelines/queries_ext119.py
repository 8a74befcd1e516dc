"""Round-3 extension operators, batch 119: exact polygon second-moment
integrals + lattice supercover edge crossings.

``area_moment_stats`` — per dyadic document, the exact integer
numerators of the polygon's second moments of area about the
bbox.min-normalized frame, via the Green's-theorem edge sums over ALL
rings (signed, as-stored orientation — a CW hole subtracts):

    ixx12 = SUM (y_i^2 + y_i*y_j + y_j^2) * cross      (= 12*Ixx)
    iyy12 = SUM (x_i^2 + x_i*x_j + x_j^2) * cross      (= 12*Iyy)
    ixy24 = SUM (x_i*y_j + 2*x_i*y_i + 2*x_j*y_j + x_j*y_i) * cross
                                                       (= 24*Ixy)

with cross = x_i*y_j - x_j*y_i over consecutive stored vertex pairs
(rings are stored closed, so no wrap edge).  The dyadic fixtures have
INTEGER vertex coordinates and documents translate them by integer
offsets, so after the translation-exact bbox.min subtraction every
term and partial sum is an integer well inside 2^53 — the float64
edge sums are order-free exact and cast losslessly to int64.  The
oracle computes the same sums INSIDE DuckDB (LEAD over an embedded
fixture-vertex VALUES table — an independent engine doing the
arithmetic, not replayed CASE constants) and joins to documents by
``doc_id % N_FIXTURES``.

``edge_supercover_stats`` — per dyadic document, the lattice
supercover cost of the EXTERIOR ring: for each stored edge with
integer deltas (dx, dy), the number of unit-cell interiors the open
segment crosses is ``|dx| + |dy| - gcd(|dx|, |dy|)`` (the classic
corner-to-corner identity; an axis-aligned on-grid edge crosses 0
interiors, a degenerate point edge contributes 0 since gcd(0,0)=0).
Emits the per-doc total and the max single-edge crossing count.
Translation-invariant exactly (deltas are unchanged by the integer
offsets).  Oracle: DuckDB's own ``gcd`` over the same embedded vertex
table.

Reference anchors: shape-metrology family (SURVEY.md §2.3); siblings:
picks_theorem_audit (gcd boundary identity), diameter_stats /
hausdorff_fixture_pairs (per-fixture exact geometry with independent
oracles), rectilinearity_stats.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources import docs as docs_mod
from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES
from .queries_ext import DYADIC_IDX, _dyadic_rings_ds


# --------------------------------------------------------------------------
# shared: fixture vertex tables embedded as SQL VALUES
# --------------------------------------------------------------------------


def _sql_fixture_verts(exterior_only: bool) -> str:
    """VALUES table (fix_idx, ring_idx, seq, x, y) of the dyadic fixture
    rings normalized to the exterior bbox.min — pure input data; all
    downstream arithmetic happens in DuckDB."""
    rows = []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        rings = FIXTURES[name].rings
        off = np.asarray(rings[0], dtype=np.float64).min(axis=0)
        for ri, ring in enumerate(rings):
            if exterior_only and ri > 0:
                break
            r = np.asarray(ring, dtype=np.float64) - off
            for si, (x, y) in enumerate(r):
                rows.append(
                    f"({f},{ri},{si},{int(x)},{int(y)})")
    return ("SELECT * FROM (VALUES " + ",".join(rows)
            + ") v(fix_idx, ring_idx, seq, x, y)")


# --------------------------------------------------------------------------
# area_moment_stats
# --------------------------------------------------------------------------


def _moment_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    ixx = np.empty(len(polys), dtype=np.int64)
    iyy = np.empty(len(polys), dtype=np.int64)
    ixy = np.empty(len(polys), dtype=np.int64)
    for i, rings in enumerate(polys):
        off = rings[0].min(axis=0)
        sxx = syy = sxy = 0.0
        for ring in rings:
            r = ring - off
            x0, y0 = r[:-1, 0], r[:-1, 1]
            x1, y1 = r[1:, 0], r[1:, 1]
            cross = x0 * y1 - x1 * y0
            sxx += ((y0 * y0 + y0 * y1 + y1 * y1) * cross).sum()
            syy += ((x0 * x0 + x0 * x1 + x1 * x1) * cross).sum()
            sxy += ((x0 * y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1 * y0)
                    * cross).sum()
        # integer-valued by construction; lossless int64 casts
        ixx[i] = int(sxx)
        iyy[i] = int(syy)
        ixy[i] = int(sxy)
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "ixx12": pa.array(ixx, type=pa.int64()),
        "iyy12": pa.array(iyy, type=pa.int64()),
        "ixy24": pa.array(ixy, type=pa.int64()),
    })


def q_area_moment_stats(sf_dir: str):
    return _dyadic_rings_ds(sf_dir).map_batches(
        _moment_stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_area_moment_stats() -> str:
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        WITH verts AS ({_sql_fixture_verts(exterior_only=False)}),
        edges AS (
            SELECT fix_idx, x AS x0, y AS y0,
                   LEAD(x) OVER w AS x1, LEAD(y) OVER w AS y1
            FROM verts
            WINDOW w AS (PARTITION BY fix_idx, ring_idx ORDER BY seq)
        ),
        mom AS (
            SELECT fix_idx,
                   SUM((y0*y0 + y0*y1 + y1*y1) * (x0*y1 - x1*y0))
                       AS ixx12,
                   SUM((x0*x0 + x0*x1 + x1*x1) * (x0*y1 - x1*y0))
                       AS iyy12,
                   SUM((x0*y1 + 2*x0*y0 + 2*x1*y1 + x1*y0)
                       * (x0*y1 - x1*y0)) AS ixy24
            FROM edges WHERE x1 IS NOT NULL
            GROUP BY fix_idx
        )
        SELECT d.doc_id AS doc_num,
               d.doc_id % {n} AS fixture_idx,
               CAST(m.ixx12 AS BIGINT) AS ixx12,
               CAST(m.iyy12 AS BIGINT) AS iyy12,
               CAST(m.ixy24 AS BIGINT) AS ixy24
        FROM documents d
        JOIN mom m ON m.fix_idx = d.doc_id % {n}
        WHERE d.doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# edge_supercover_stats
# --------------------------------------------------------------------------


def _supercover_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    tot = np.empty(len(polys), dtype=np.int64)
    mx = np.empty(len(polys), dtype=np.int64)
    for i, rings in enumerate(polys):
        ext = rings[0]
        d = np.abs(np.diff(ext, axis=0)).astype(np.int64)
        cells = d[:, 0] + d[:, 1] - np.gcd(d[:, 0], d[:, 1])
        tot[i] = cells.sum()
        mx[i] = cells.max() if len(cells) else 0
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "cells_crossed": pa.array(tot, type=pa.int64()),
        "max_edge_cells": pa.array(mx, type=pa.int64()),
    })


def q_edge_supercover_stats(sf_dir: str):
    return _dyadic_rings_ds(sf_dir).map_batches(
        _supercover_stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_edge_supercover_stats() -> str:
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        WITH verts AS ({_sql_fixture_verts(exterior_only=True)}),
        edges AS (
            SELECT fix_idx,
                   ABS(LEAD(x) OVER w - x) AS dx,
                   ABS(LEAD(y) OVER w - y) AS dy
            FROM verts
            WINDOW w AS (PARTITION BY fix_idx, ring_idx ORDER BY seq)
        ),
        sc AS (
            SELECT fix_idx,
                   SUM(dx + dy - gcd(dx, dy)) AS cells_crossed,
                   MAX(dx + dy - gcd(dx, dy)) AS max_edge_cells
            FROM edges WHERE dx IS NOT NULL
            GROUP BY fix_idx
        )
        SELECT d.doc_id AS doc_num,
               d.doc_id % {n} AS fixture_idx,
               CAST(s.cells_crossed AS BIGINT) AS cells_crossed,
               CAST(s.max_edge_cells AS BIGINT) AS max_edge_cells
        FROM documents d
        JOIN sc s ON s.fix_idx = d.doc_id % {n}
        WHERE d.doc_id % {n} IN ({mods})
    """


def build_queries_ext119() -> dict:
    return {
        "area_moment_stats": q_area_moment_stats,
        "edge_supercover_stats": q_edge_supercover_stats,
    }


def build_oracles_ext119() -> dict:
    return {
        "area_moment_stats": _sql_area_moment_stats(),
        "edge_supercover_stats": _sql_edge_supercover_stats(),
    }
