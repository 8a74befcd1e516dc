"""Flagship pipeline: the full streaming chain from SURVEY.md §3.4.

    synthesize the documents of ids 0..n-1 (n from the documents table)
      -> map_batches(label_batch)            stateless tasks, Arrow zero-copy
      -> map_batches(append_cell_columns)    stateless tasks
      -> group_map(tile_id, render)          THE shuffle
      -> tile rows (raster + vector payloads)

Every stage streams; nothing materializes the whole dataset.  The label
and cell-encode steps are the engine's one chain,
``stages.label.labeled_rows``, over the engine's one doc source,
``sources.docs.range_docs``, as in ``run`` and the bench scripts; the
documents table gives only its row count (``table.document_count``,
which requires the ids ``0..n-1``).  Every map stage in the engine runs as
a stateless task, so Ray Data fuses the cell encode into the label tasks.
``labeled_output`` shapes such rows (the registry reads them from a
``run`` output) into the FIXTURES.md §3 table.
"""

from __future__ import annotations

from ..sources.docs import range_docs
from ..stages.label import labeled_rows
from ..stages.tiles import render_tiles
from .table import document_count


def flagship_pipeline(sf_dir: str):
    ds = labeled_rows(range_docs([(0, document_count(sf_dir))]))
    # project BEFORE the tile shuffle: the renderer needs 3 columns; spans +
    # rings riding through the groupby would multiply the exchange ~50x
    # (measured 49 s -> bench-level on 120k docs)
    return render_tiles(ds.select_columns(["tile_id", "label_x", "label_y"]))


def labeled_output(ds):
    """Labelled, cell-encoded rows -> the per-document output table in the
    exact FIXTURES.md §3 schema:

        doc_id, spans (pass-through, order-preserved), label struct<x,y>,
        label_dist, area, label_error (nullable), cell_id, tile_id
    """
    import pyarrow as pa

    def shape(batch: pa.Table) -> pa.Table:
        label = pa.StructArray.from_arrays(
            [batch.column("label_x").combine_chunks(), batch.column("label_y").combine_chunks()],
            names=["x", "y"],
        )
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "spans": batch.column("spans"),
            "label": label,
            "label_dist": batch.column("label_dist"),
            "area": batch.column("area"),
            "label_error": batch.column("label_error"),
            "cell_id": batch.column("cell_id"),
            "tile_id": batch.column("tile_id"),
        })

    return ds.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)
