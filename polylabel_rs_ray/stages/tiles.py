"""Tile rendering: per-tile raster (point-density grid) and vector
(clipped zone geometry + points) payloads.

This is the wide stage: rows are grouped by ``tile_id``
(``group_map(ds, "tile_id", ...)`` — the one all-to-all shuffle in
the flagship pipeline) and each group renders independently.  A tile row
carries every point of its tile, so a hot tile is listed and sorted in one
place whichever way the rows reach it; splitting it over sub-groups and
merging the partial rows again only adds a second pass.  Raster
payloads are raw little-endian uint32 grids here; real spec-compliant
PNG encoding of the grids lives in ``pipelines/png.py`` (pure-stdlib
codec) and runs as a downstream stateless map — see the
``tile_png_stats`` query.  Vector payloads are the tile-clipped zone
rectangles plus the points, serialized as plain float64 arrays.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .cells import cell_bounds
from .join import zone_table
from .util import group_map


class TileRenderer:
    """map_groups callable: one group = one tile's points."""

    def __init__(self, raster_px: int = 64):
        self.px = raster_px
        self.z = zone_table()

    def __call__(self, group: pa.Table) -> pa.Table:
        tid = int(group.column("tile_id")[0].as_py())
        x = group.column("label_x").to_numpy()
        y = group.column("label_y").to_numpy()
        (x0,), (y0,), (x1,), (y1,) = cell_bounds(np.array([tid]))

        # raster: point-count grid, row-major from (x0, y0)
        gx = np.clip(((x - x0) / (x1 - x0) * self.px).astype(np.int64), 0, self.px - 1)
        gy = np.clip(((y - y0) / (y1 - y0) * self.px).astype(np.int64), 0, self.px - 1)
        grid = np.zeros((self.px, self.px), dtype=np.uint32)
        np.add.at(grid, (gy, gx), 1)

        # vector: zones clipped to the tile bbox + the points themselves
        z = self.z
        cx0 = np.maximum(z["x0"], x0)
        cy0 = np.maximum(z["y0"], y0)
        cx1 = np.minimum(z["x1"], x1)
        cy1 = np.minimum(z["y1"], y1)
        keep = (cx0 < cx1) & (cy0 < cy1)
        clipped = np.column_stack(
            [z["zone_id"][keep].astype(np.float64), cx0[keep], cy0[keep], cx1[keep], cy1[keep]]
        )

        return pa.table(
            {
                "tile_id": pa.array([tid], type=pa.int64()),
                "n_points": pa.array([len(x)], type=pa.int64()),
                "n_zones_clipped": pa.array([int(keep.sum())], type=pa.int64()),
                "raster": pa.array([grid.tobytes()], type=pa.binary()),
                "raster_nonzero": pa.array([int((grid > 0).sum())], type=pa.int64()),
                "raster_sum": pa.array([int(grid.sum())], type=pa.int64()),
                "vector": pa.array([clipped.tobytes()], type=pa.binary()),
                "points_x": pa.array([np.sort(x).tolist()], type=pa.list_(pa.float64())),
                "points_y": pa.array([np.sort(y).tolist()], type=pa.list_(pa.float64())),
            }
        )


def render_tiles(ds):
    """Dataset with (tile_id, label_x, label_y) -> one row per tile.  Tile
    bounds come from each ``tile_id`` itself (``cell_bounds``)."""
    renderer = TileRenderer()

    def render_tile_group(group: pa.Table) -> pa.Table:
        return renderer(group)

    return group_map(ds, "tile_id", render_tile_group)
