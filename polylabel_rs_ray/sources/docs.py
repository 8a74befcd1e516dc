"""Deterministic synthesis of the interleaved text+media document table.

Input table shape per ``BASELINE.json`` ``input_hint``:

    doc_id:    string      (derived from the integer doc id)
    spans:     list<struct<kind: string, text: string, media_ref: string,
                           offset: int32>>
    rings:     list<list<fixed_size_list<double, 2>>>   ring 0 = exterior
    tolerance: double

Everything is a pure function of the integer ``doc_id`` (seed-free), so any
shard of the table can be synthesized independently on any worker.  The
one source, ``range_docs``, therefore needs no table: it synthesizes the
documents of doc-id ranges, and every caller (``run``, the flagship, the
bench scripts) names its documents by such ranges.

Geometry: row i carries fixture ``FIXTURE_CYCLE[i % 9]`` translated by the
integer offset ``(i*37 % 1000, i*73 % 1000)``.  For the dyadic fixtures
(DYADIC_FIXTURES) integer translation shifts the reference label point
EXACTLY (tests/test_geom_kernel.py::test_translation_exactness_dyadic),
which the DuckDB oracle queries rely on.  Degenerate sentinels stay (0,0)
regardless of translation (lib.rs:340-343 returns before any geometry is
used).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

SPAN_KINDS = ["text", "image", "audio", "video"]

RINGS_TYPE = pa.list_(pa.list_(pa.list_(pa.float64(), 2)))


class _Template:
    __slots__ = ("coords", "ring_lens", "tolerance", "n_rings", "n_pts")

    def __init__(self, rings, tolerance):
        rs = [np.ascontiguousarray(r, dtype=np.float64) for r in rings]
        self.coords = np.concatenate(rs)
        self.ring_lens = np.array([len(r) for r in rs], dtype=np.int32)
        self.tolerance = float(tolerance)
        self.n_rings = len(rs)
        self.n_pts = int(self.ring_lens.sum())


TEMPLATES: list[_Template] = [
    _Template(FIXTURES[name].rings, FIXTURES[name].tolerance) for name in FIXTURE_CYCLE
]
DYADIC_CYCLE_IDX = [FIXTURE_CYCLE.index(n) for n in DYADIC_FIXTURES]

N_FIXTURES = len(FIXTURE_CYCLE)
OFF_X_MULT, OFF_Y_MULT, OFF_MOD = 37, 73, 1000


def doc_offsets(doc_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx = ((doc_ids * OFF_X_MULT) % OFF_MOD).astype(np.float64)
    dy = ((doc_ids * OFF_Y_MULT) % OFF_MOD).astype(np.float64)
    return dx, dy


def rings_for_doc_ids(doc_ids: np.ndarray) -> pa.ListArray:
    """Vectorized construction of the nested rings column for a batch."""
    n = len(doc_ids)
    fix = (doc_ids % N_FIXTURES).astype(np.int64)
    dx, dy = doc_offsets(doc_ids)

    order = np.argsort(fix, kind="stable")
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)

    coord_parts: list[np.ndarray] = []
    ring_len_parts: list[np.ndarray] = []
    rings_per_row = np.empty(n, dtype=np.int32)
    pos = 0
    for f in range(N_FIXTURES):
        rows = order[fix[order] == f]
        g = len(rows)
        if g == 0:
            continue
        t = TEMPLATES[f]
        tiled = np.tile(t.coords, (g, 1))
        offs = np.empty((g, 2))
        offs[:, 0] = dx[rows]
        offs[:, 1] = dy[rows]
        tiled += np.repeat(offs, t.n_pts, axis=0)
        coord_parts.append(tiled)
        ring_len_parts.append(np.tile(t.ring_lens, g))
        rings_per_row[pos : pos + g] = t.n_rings
        pos += g

    coords = np.concatenate(coord_parts) if coord_parts else np.empty((0, 2))
    ring_lens = np.concatenate(ring_len_parts) if ring_len_parts else np.empty(0, dtype=np.int32)

    flat = pa.array(coords.ravel(), type=pa.float64())
    points = pa.FixedSizeListArray.from_arrays(flat, 2)
    ring_offsets = np.zeros(len(ring_lens) + 1, dtype=np.int32)
    np.cumsum(ring_lens, out=ring_offsets[1:])
    rings_arr = pa.ListArray.from_arrays(pa.array(ring_offsets, type=pa.int32()), points)
    row_offsets = np.zeros(pos + 1, dtype=np.int32)
    np.cumsum(rings_per_row[:pos], out=row_offsets[1:])
    nested = pa.ListArray.from_arrays(pa.array(row_offsets, type=pa.int32()), rings_arr)
    # restore original row order
    return nested.take(pa.array(inv, type=pa.int64()))


def tolerance_for_doc_ids(doc_ids: np.ndarray) -> np.ndarray:
    tols = np.array([t.tolerance for t in TEMPLATES])
    return tols[(doc_ids % N_FIXTURES).astype(np.int64)]


def spans_for_doc_ids(doc_ids: np.ndarray) -> pa.ListArray:
    """1..8 interleaved spans per doc; kind cycles text/image/audio/video,
    deterministic values so span-sequence equality is checkable anywhere."""
    n = len(doc_ids)
    counts = (doc_ids % 8 + 1).astype(np.int32)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    doc_rep = np.repeat(doc_ids, counts)
    j = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    kind_idx = ((doc_rep + j) % len(SPAN_KINDS)).astype(np.int64)
    is_text = kind_idx == 0

    # string assembly via arrow C++ kernels (int->string cast + elementwise
    # join + if_else) — ~6x the numpy np.char path this replaced
    import pyarrow.compute as pc

    kinds = pc.take(pa.array(SPAN_KINDS, type=pa.string()),
                    pa.array(kind_idx, type=pa.int64()))
    doc_s = pc.cast(pa.array(doc_rep, type=pa.int64()), pa.string())
    j_s = pc.cast(pa.array(j, type=pa.int64()), pa.string())
    text_all = pc.binary_join_element_wise(
        "text of doc ", doc_s, " span ", j_s, ""
    )
    ref_all = pc.binary_join_element_wise("media://", doc_s, "/", j_s, "")
    mask = pa.array(is_text)
    nulls = pa.nulls(total, pa.string())
    struct = pa.StructArray.from_arrays(
        [
            kinds,
            pc.if_else(mask, text_all, nulls),
            pc.if_else(mask, nulls, ref_all),
            pa.array(j, type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), struct)


def attach_interleaved(batch: pa.Table) -> pa.Table:
    """map_batches(batch_format="pyarrow") stage: given a batch carrying an
    integer ``doc_id`` column, append the interleaved-document columns
    (string doc_id, spans, rings, tolerance)."""
    import pyarrow.compute as pc

    ids = batch.column("doc_id").to_numpy().astype(np.int64)
    ids_arr = pa.array(ids, type=pa.int64())
    doc_id_str = pc.binary_join_element_wise(
        pa.array(["doc-"] * len(ids), type=pa.string()),
        pc.cast(ids_arr, pa.string()),
        "",
    )
    out = pa.table(
        {
            "doc_id": doc_id_str,
            "doc_num": ids_arr,
            "spans": spans_for_doc_ids(ids),
            "rings": rings_for_doc_ids(ids),
            "tolerance": pa.array(tolerance_for_doc_ids(ids), type=pa.float64()),
        }
    )
    return out


# Rows a doc block holds.  It is not the label task size: a label task
# bundles whole blocks up to ``label.LABEL_BATCH_ROWS`` rows, i.e. two
# 300-row blocks.  Since fixtures cycle with the doc id, every block of
# consecutive ids carries the same mix of cheap and ~1000x costlier polygons.
LABEL_BLOCK_ROWS = 300


def doc_blocks(rows: int) -> int:
    """Block count for ``rows`` docs, the one block rule of ``range_docs``:
    ~LABEL_BLOCK_ROWS rows a block, at least ``shuffle_blocks()`` blocks
    (one a CPU, at least 8), at most 4096."""
    from ..stages.util import shuffle_blocks

    return int(min(max(rows // LABEL_BLOCK_ROWS, shuffle_blocks()), 4096))


def _synthesize(ds):
    """``ds`` (an integer ``doc_id`` column) -> the interleaved documents.
    ``attach_interleaved`` is looked up when the stage is built, so a
    wrapper patched onto this module is the function the tasks run."""
    return ds.map_batches(attach_interleaved, batch_format="pyarrow", zero_copy_batch=True)


def range_docs(ranges: list[tuple[int, int]]):
    """Interleaved-document Dataset for the doc ids of every ``(lo, hi)``
    range in ``ranges``, with no table behind it: every row is synthesized
    from its id.  The ids of all ranges, concatenated, are split once into
    ``doc_blocks(total)`` int64 ``doc_id`` blocks on the driver (a block may
    hold ids of two ranges) and enter the Dataset through ``from_arrow``,
    so no read task runs and the synthesis fuses into the label chain.  The
    price: every id passes through the object store at 8 bytes a doc
    (0.8 GB for a pass over 10^8 docs)."""
    import ray

    ids = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges])
    blocks = [pa.table({"doc_id": b}) for b in np.array_split(ids, doc_blocks(len(ids)))]
    return _synthesize(ray.data.from_arrow(blocks))
