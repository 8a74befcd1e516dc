"""Spatial join stages: point-in-polygon zone join and kNN label->tile.

Patterns (SURVEY.md §2.3 joins, §7 step 4):

* **Broadcast PIP join** — the polygon side (the deterministic ``zones``
  table) is small, so it is shipped once (serialized into the stage
  callable) instead of shuffled; the stage builds a cell_id ->
  candidate-zone index once in ``__init__`` (the H3/S2-style cell
  prefilter) and every task reads that one copy, then exact containment
  runs the same even-odd parity kernel the labeler uses (lib.rs:218-222).
* **kNN label->tile** — tile centers form a regular grid, so the
  k-nearest-tile search scans the 5x5 neighbor-ring candidate set
  (provably a superset of the true top-3: any ring>=3 center is farther
  than every ring<=1 center can be) and ranks by exact squared distance
  with tile_id as the deterministic tiebreak.

Zone geometry is axis-aligned (rectangles with a deterministic layout) so
the DuckDB oracle can express the same join with BETWEEN predicates; zone
edges sit on half-integer coordinates so no label point ever lies exactly
on a zone boundary (labels are sentinel (0,0) or carry fractional dyadic
parts != .5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_CELL_RES, DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
from ..geom.kernel import pack_polygons, signed_distance
from .cells import cover_bbox, encode_cells, grid_coords

N_ZONES = 40
KNN_K = 3  # tile centers per label point


def zone_table() -> dict[str, np.ndarray]:
    """Deterministic axis-aligned zones (the small join side)."""
    i = np.arange(N_ZONES, dtype=np.int64)
    x0 = ((i * 131) % 1200).astype(np.float64) - 59.5
    y0 = ((i * 197) % 1200).astype(np.float64) - 59.5
    w = 40.0 + ((i * 13) % 160).astype(np.float64)
    h = 40.0 + ((i * 29) % 160).astype(np.float64)
    return {"zone_id": i, "x0": x0, "y0": y0, "x1": x0 + w, "y1": y0 + h}


def zone_rings(z: dict[str, np.ndarray], j: int) -> list[np.ndarray]:
    """Zone j as a closed ring (counter-clockwise) for the parity kernel."""
    x0, y0, x1, y1 = z["x0"][j], z["y0"][j], z["x1"][j], z["y1"][j]
    return [np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])]


class ZoneJoin:
    """map_batches stage: rows with (label_x, label_y) -> (row, zone_id)
    pairs for every zone containing the label point.  Rows matching no zone
    are dropped (inner-join semantics).

    Built once in ``__init__`` and shipped with the stage: cell_id ->
    candidate zone ids, from each zone's bbox covering at
    ``DEFAULT_CELL_RES``."""

    def __init__(self):
        z = zone_table()
        index: dict[int, list[int]] = {}
        for j in range(N_ZONES):
            for cid in cover_bbox(z["x0"][j], z["y0"][j], z["x1"][j], z["y1"][j],
                                  DEFAULT_CELL_RES):
                index.setdefault(int(cid), []).append(j)
        # CSR layout (cell_id -> zone-id span) so per-batch candidate
        # expansion is pure searchsorted + repeat/gather, no Python loop
        cells_sorted = np.array(sorted(index), dtype=np.int64)
        counts = np.array([len(index[c]) for c in cells_sorted], dtype=np.int64)
        self.csr_cells = cells_sorted
        self.csr_off = np.concatenate([[0], np.cumsum(counts)])
        self.csr_zones = (
            np.concatenate([np.asarray(index[c], dtype=np.int64) for c in cells_sorted])
            if len(cells_sorted)
            else np.empty(0, dtype=np.int64)
        )
        # rings for the exact parity test (general-polygon path; rectangles
        # here, but the scorer is the labeller's compiled one)
        self.zones = pack_polygons([zone_rings(z, j) for j in range(N_ZONES)])

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch.column("label_x").to_numpy()
        py = batch.column("label_y").to_numpy()
        ix, iy = grid_coords(px, py, DEFAULT_CELL_RES)
        cid = encode_cells(ix, iy, DEFAULT_CELL_RES)

        # CSR candidate expansion: one searchsorted + repeat/gather
        ncells = len(self.csr_cells)
        pos = np.searchsorted(self.csr_cells, cid)
        pos_c = np.minimum(pos, max(ncells - 1, 0))
        found = (self.csr_cells[pos_c] == cid) if ncells else np.zeros(len(cid), bool)
        cnt = np.where(found, self.csr_off[pos_c + 1] - self.csr_off[pos_c], 0)
        total = int(cnt.sum())
        if total == 0:
            out = batch.select(["doc_num"]).slice(0, 0)
            return out.append_column("zone_id", pa.array([], type=pa.int64()))

        rows_a = np.repeat(np.arange(len(px), dtype=np.int64), cnt)
        base = np.repeat(self.csr_off[pos_c], cnt)
        csum = np.cumsum(cnt)
        zones_a = self.csr_zones[base + np.arange(total) - np.repeat(csum - cnt, cnt)]
        d = signed_distance(px[rows_a], py[rows_a], zones_a, self.zones)
        hit = d > 0  # strictly inside (no boundary cases by construction)
        rows_a = rows_a[hit]
        zones_a = zones_a[hit]
        out = batch.select(["doc_num"]).take(pa.array(rows_a))
        return out.append_column("zone_id", pa.array(zones_a, type=pa.int64()))


class KnnTiles:
    """map_batches stage: the ``KNN_K`` nearest tile centers per label point
    via the neighbor-ring candidate set; appends rank (1-based), tile_id,
    dist2."""

    def __init__(self):
        # relative 5x5 candidate offsets, built once with the stage
        d = np.arange(-2, 3, dtype=np.int64)
        ox, oy = np.meshgrid(d, d, indexing="ij")
        self.ox = ox.ravel()
        self.oy = oy.ravel()

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch.column("label_x").to_numpy()
        py = batch.column("label_y").to_numpy()
        n = 1 << DEFAULT_TILE_RES
        size = WORLD_SIZE / n
        ix, iy = grid_coords(px, py, DEFAULT_TILE_RES)
        cx = ix[:, None] + self.ox[None, :]
        cy = iy[:, None] + self.oy[None, :]
        valid = (cx >= 0) & (cx < n) & (cy >= 0) & (cy < n)
        ccx = WORLD_MIN + (cx + 0.5) * size
        ccy = WORLD_MIN + (cy + 0.5) * size
        dist2 = (px[:, None] - ccx) ** 2 + (py[:, None] - ccy) ** 2
        dist2 = np.where(valid, dist2, np.inf)
        tid = encode_cells(
            np.clip(cx, 0, n - 1).ravel(), np.clip(cy, 0, n - 1).ravel(), DEFAULT_TILE_RES
        ).reshape(dist2.shape)
        # rank by (dist2, tile_id) — deterministic under exact-dyadic ties
        order = np.lexsort((tid, dist2), axis=-1)[:, :KNN_K]
        P = len(px)
        rows = np.repeat(np.arange(P), KNN_K)
        sel_t = np.take_along_axis(tid, order, axis=1).ravel()
        sel_d = np.take_along_axis(dist2, order, axis=1).ravel()
        ranks = np.tile(np.arange(1, KNN_K + 1), P)
        out = batch.select(["doc_num"]).take(pa.array(rows))
        return (
            out.append_column("knn_rank", pa.array(ranks, type=pa.int64()))
            .append_column("tile_id", pa.array(sel_t, type=pa.int64()))
            .append_column("dist2", pa.array(sel_d, type=pa.float64()))
        )
