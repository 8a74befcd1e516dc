"""Round-3 extension operators, batch 30: PNG-encoded raster tiles.

``tile_png_stats`` — the tile render pipeline with REAL PNG payloads:
each tile's uint32 point-density raster is encoded as a spec-compliant
PNG (pure-stdlib codec, ``pipelines/png.py``), then decoded BACK and the
per-tile integer statistics are computed from the decoded pixels.  The
DuckDB oracle recomputes the same statistics straight from the label
points, so a value-exact match proves the whole render -> PNG encode ->
PNG decode chain is lossless end-to-end.

Scale shape: identical to ``render_tiles`` — one groupby(tile_id)
exchange, then a stateless per-tile map (PNG encode is per-tile local
work; tiles are O(4^res) rows, payloads ~KB).  No driver materialization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def q_tile_png_stats(sf_dir: str):
    from ..stages.tiles import render_tiles
    from .png import decode_count_grid, encode_count_grid
    from .queries import CELL_COLUMNS, _dyadic_labeled

    ds = _dyadic_labeled(sf_dir, CELL_COLUMNS)
    tiles = render_tiles(ds)

    def png_stage(batch: pa.Table) -> pa.Table:
        tids = batch.column("tile_id").to_numpy()
        rasters = batch.column("raster").to_pylist()
        modes, sums, nnz, mx, nbytes = [], [], [], [], []
        for raw in rasters:
            grid = np.frombuffer(raw, dtype=np.uint32)
            px = int(round(len(grid) ** 0.5))
            grid = grid.reshape(px, px)
            png, mode = encode_count_grid(grid)
            back = decode_count_grid(png)
            modes.append(mode)
            sums.append(int(back.sum()))
            nnz.append(int((back > 0).sum()))
            mx.append(int(back.max()) if back.size else 0)
            nbytes.append(len(png))
        return pa.table({
            "tile_id": pa.array(tids, type=pa.int64()),
            "png_w": pa.array([64] * len(tids), type=pa.int64()),
            "png_h": pa.array([64] * len(tids), type=pa.int64()),
            "mode": pa.array(modes, type=pa.string()),
            "decoded_sum": pa.array(sums, type=pa.int64()),
            "decoded_nonzero": pa.array(nnz, type=pa.int64()),
            "decoded_max": pa.array(mx, type=pa.int64()),
        })

    return tiles.map_batches(png_stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_tile_png_stats() -> str:
    """Replay of the per-pixel binning (same exact dyadic arithmetic as
    the ``render_tiles`` oracle) aggregated to per-tile decoded stats."""
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
    from .queries import sql_cell_id_expr
    from .queries import _sql_label_dyadic

    n = 1 << DEFAULT_TILE_RES
    ts = WORLD_SIZE / n
    tile = sql_cell_id_expr("label_x", "label_y", DEFAULT_TILE_RES)

    def grid(c):
        return (
            f"LEAST({n - 1}, GREATEST(0, "
            f"CAST(FLOOR(({c} - ({WORLD_MIN!r})) / {ts!r}) AS BIGINT)))"
        )

    def pix(c, i):
        return (
            f"LEAST(63, GREATEST(0, CAST(FLOOR(({c} - ({WORLD_MIN!r} + {i} * {ts!r}))"
            f" / {ts!r} * 64) AS BIGINT)))"
        )

    return f"""
        WITH l AS ({_sql_label_dyadic()}),
        pts AS (
          SELECT {tile} AS tile_id,
                 {grid('label_x')} AS ixt, {grid('label_y')} AS iyt,
                 label_x, label_y
          FROM l
        ), perpix AS (
          SELECT tile_id,
                 {pix('label_x', 'ixt')} AS gx,
                 {pix('label_y', 'iyt')} AS gy,
                 CAST(COUNT(*) AS BIGINT) AS c
          FROM pts GROUP BY tile_id, gx, gy
        )
        SELECT tile_id,
               CAST(64 AS BIGINT) AS png_w,
               CAST(64 AS BIGINT) AS png_h,
               CASE WHEN MAX(c) < 65536 THEN 'gray16' ELSE 'rgba8' END AS mode,
               CAST(SUM(c) AS BIGINT) AS decoded_sum,
               CAST(COUNT(*) AS BIGINT) AS decoded_nonzero,
               CAST(MAX(c) AS BIGINT) AS decoded_max
        FROM perpix GROUP BY tile_id
    """


def build_queries_ext30() -> dict:
    return {"tile_png_stats": q_tile_png_stats}


def build_oracles_ext30() -> dict:
    return {"tile_png_stats": _sql_tile_png_stats()}
