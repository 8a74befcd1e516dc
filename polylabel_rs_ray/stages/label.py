"""Ray Data label stage: rings -> pole-of-inaccessibility columns.

Stateless ``map_batches(label_batch, batch_format="pyarrow",
zero_copy_batch=True)`` over the interleaved document table.  Geometry is
read zero-copy from the Arrow nested-list buffers (offsets + flat float64
values); all input columns pass through untouched (the per-row
span-sequence-equality invariant is preserved structurally).

Appends: label_x, label_y (the label point — the reference's
``best_cell.centroid``, lib.rs:396-397), label_dist (achieved interior
clearance, ``best_cell.distance``), area (shoelace signed area, the CLI's
``_area`` property, labels.geojson:1), label_error (non-null when the
reference would have errored/panicked: ffi.rs:78-80, lib.rs:64-66).

``labeled_rows`` is the engine's one chain from documents to labelled,
cell-encoded rows; every entry (flagship, ``run``, the bench scripts) calls
it and differs only in its doc source.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import cells
from ..config import DEFAULT_CELL_RES, DEFAULT_TILE_RES
from ..geom.kernel import polylabel_batch

DEFAULT_TOLERANCE = 1.0
# Rows a label batch holds.  A task bundles whole doc blocks until it has at
# least this many rows, so over ``docs.LABEL_BLOCK_ROWS`` (300) blocks a
# label task is two blocks, ~600 rows.  One block a task (300-row batches)
# was 15-18% slower in docs/s on perfbench's mixed_flagship and
# small_poly_join (1 CPU, 10 alternating pairs each).
LABEL_BATCH_ROWS = 512


def rings_to_numpy(col: pa.ChunkedArray | pa.Array) -> list[list[np.ndarray]]:
    """Zero-copy extraction: list<list<fixed_size_list<double|float,2>>>
    column -> per-row lists of (n, 2) views into the Arrow buffers.

    f32 columns (the reference's generic ``T: GeoFloat`` with T=f32,
    lib.rs:336-339) are read zero-copy too; the kernel upcasts per ring, so
    f32 geometry labels at >= the reference's f32 precision."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list[list[np.ndarray]] = []
    for chunk in chunks:
        ring_off = chunk.offsets.to_numpy()  # (rows+1,) into chunk.values
        l2 = chunk.values  # ListArray of points (unsliced child)
        pt_off = l2.offsets.to_numpy()
        fsl = l2.values
        np_dtype = np.float32 if pa.types.is_float32(fsl.values.type) else np.float64
        flat = np.frombuffer(fsl.values.buffers()[1], dtype=np_dtype)
        if fsl.values.offset:
            flat = flat[fsl.values.offset :]
        coords = flat[: len(fsl) * 2].reshape(-1, 2)
        for i in range(len(chunk)):
            rings = [
                coords[pt_off[j] : pt_off[j + 1]]
                for j in range(ring_off[i], ring_off[i + 1])
            ]
            out.append(rings)
    return out


def label_batch(batch: pa.Table) -> pa.Table:
    polys = rings_to_numpy(batch.column("rings"))
    if "tolerance" in batch.column_names:
        tols = batch.column("tolerance").to_numpy()
    else:
        tols = np.full(len(polys), DEFAULT_TOLERANCE)
    x, y, d, a, errs = polylabel_batch(polys, np.asarray(tols, dtype=np.float64))
    return (
        batch.append_column("label_x", pa.array(x, type=pa.float64()))
        .append_column("label_y", pa.array(y, type=pa.float64()))
        .append_column("label_dist", pa.array(d, type=pa.float64()))
        .append_column("area", pa.array(a, type=pa.float64()))
        .append_column(
            "label_error", pa.array([e if e else None for e in errs], type=pa.string())
        )
    )


def label_points(ds):
    """Dataset -> Dataset with label columns, in batches of LABEL_BATCH_ROWS rows."""
    return ds.map_batches(
        label_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=LABEL_BATCH_ROWS
    )


def labeled_rows(docs, cell_res: int = DEFAULT_CELL_RES, tile_res: int = DEFAULT_TILE_RES):
    """Documents -> label columns -> ``cell_id`` and ``tile_id``.  The stage
    callables are looked up on their modules when the chain is built, so a
    wrapper patched onto a module is the function the tasks run."""
    return cells.encode_stage(label_points(docs), cell_res, tile_res)
