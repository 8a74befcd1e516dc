"""Hierarchical quad-cell index (S2-style, built from scratch — no h3/s2
libraries exist in this environment; SURVEY.md §7 step 3).

A cell id packs ``(resolution << 58) | morton(ix, iy)`` into an int64:
``ix, iy`` are the column/row of the 2^res x 2^res grid over the fixed world
square (config.WORLD_MIN + WORLD_SIZE).  Morton (Z-order) interleaving makes
parent/child relations bit-prefix operations — the property the spatial join
and the tile assignment rely on — and keeps spatially-close cells
numerically close, which keeps range-partitioned shuffles local.

``encode_stage`` appends the cell and tile ids to a Dataset as a stateless
``map_batches`` task over ``append_cell_columns``; the encode needs no
per-worker state, so it fuses into the upstream label tasks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_CELL_RES, DEFAULT_TILE_RES, MAX_RES, WORLD_MIN, WORLD_SIZE

_RES_SHIFT = 58


def _spread_bits_u32(v: np.ndarray) -> np.ndarray:
    """Interleave zeros between the low 32 bits of v (morton part1by1)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact_bits_u64(v: np.ndarray) -> np.ndarray:
    """Inverse of _spread_bits_u32 (keep even bits, compact)."""
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def grid_coords(x: np.ndarray, y: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) -> integer grid column/row at resolution ``res``, clipped to
    the world square.  Non-finite inputs map to cell (0, 0)."""
    n = 1 << res
    scale = n / WORLD_SIZE
    with np.errstate(invalid="ignore"):
        ix = np.floor((np.asarray(x, dtype=np.float64) - WORLD_MIN) * scale)
        iy = np.floor((np.asarray(y, dtype=np.float64) - WORLD_MIN) * scale)
    ix = np.nan_to_num(ix, nan=0.0, posinf=n - 1, neginf=0.0)
    iy = np.nan_to_num(iy, nan=0.0, posinf=n - 1, neginf=0.0)
    return (
        np.clip(ix, 0, n - 1).astype(np.int64),
        np.clip(iy, 0, n - 1).astype(np.int64),
    )


def encode_cells(ix: np.ndarray, iy: np.ndarray, res: int) -> np.ndarray:
    """(ix, iy, res) -> int64 cell ids."""
    if not 0 <= res <= MAX_RES:
        raise ValueError(f"resolution {res} outside [0, {MAX_RES}]")
    morton = _spread_bits_u32(np.asarray(ix)) | (_spread_bits_u32(np.asarray(iy)) << np.uint64(1))
    cid = (np.uint64(res) << np.uint64(_RES_SHIFT)) | morton
    return cid.astype(np.int64)


def cell_id(x: np.ndarray, y: np.ndarray, res: int = DEFAULT_CELL_RES) -> np.ndarray:
    ix, iy = grid_coords(x, y, res)
    return encode_cells(ix, iy, res)


def decode_cells(cid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 cell ids -> (ix, iy, res)."""
    u = np.asarray(cid).astype(np.uint64)
    res = (u >> np.uint64(_RES_SHIFT)).astype(np.int64)
    morton = u & np.uint64((1 << _RES_SHIFT) - 1)
    ix = _compact_bits_u64(morton).astype(np.int64)
    iy = _compact_bits_u64(morton >> np.uint64(1)).astype(np.int64)
    return ix, iy, res


def cell_parent(cid: np.ndarray, parent_res: int) -> np.ndarray:
    ix, iy, res = decode_cells(cid)
    shift = res - parent_res
    if np.any(shift < 0):
        raise ValueError("parent_res coarser than cell res required")
    return encode_cells(ix >> shift, iy >> shift, parent_res)


def cell_bounds(cid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ix, iy, res = decode_cells(cid)
    sizes = WORLD_SIZE / (2.0 ** res)
    x0 = WORLD_MIN + ix * sizes
    y0 = WORLD_MIN + iy * sizes
    return x0, y0, x0 + sizes, y0 + sizes


def cover_bbox(minx: float, miny: float, maxx: float, maxy: float, res: int) -> np.ndarray:
    """Cell ids of every cell at ``res`` intersecting the bbox (the
    polygon-side covering used by the spatial join)."""
    (ix0,), (iy0,) = grid_coords(np.array([minx]), np.array([miny]), res)
    (ix1,), (iy1,) = grid_coords(np.array([maxx]), np.array([maxy]), res)
    gx = np.arange(ix0, ix1 + 1, dtype=np.int64)
    gy = np.arange(iy0, iy1 + 1, dtype=np.int64)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    return encode_cells(mx.ravel(), my.ravel(), res)


def append_cell_columns(
    batch: pa.Table,
    cell_res: int = DEFAULT_CELL_RES,
    tile_res: int = DEFAULT_TILE_RES,
) -> pa.Table:
    """Append ``cell_id`` and ``tile_id`` of each row's label point
    ``(label_x, label_y)``."""
    x = batch.column("label_x").to_numpy()
    y = batch.column("label_y").to_numpy()
    ix, iy = grid_coords(x, y, cell_res)
    shift = cell_res - tile_res
    return batch.append_column(
        "cell_id", pa.array(encode_cells(ix, iy, cell_res), type=pa.int64())
    ).append_column(
        "tile_id", pa.array(encode_cells(ix >> shift, iy >> shift, tile_res), type=pa.int64())
    )


def encode_stage(ds, cell_res: int = DEFAULT_CELL_RES, tile_res: int = DEFAULT_TILE_RES):
    """``ds`` with ``cell_id`` and ``tile_id`` of each row's label point.
    ``append_cell_columns`` is looked up when the stage is built, so a
    wrapper patched onto this module is the function the tasks run."""
    return ds.map_batches(
        append_cell_columns,
        fn_kwargs={"cell_res": cell_res, "tile_res": tile_res},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
