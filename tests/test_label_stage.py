"""End-to-end slice: synthesize interleaved docs -> map_batches label stage.

Verifies (a) label columns match the trusted scalar kernel row-by-row,
(b) the per-row span-sequence equality invariant (input_hint), (c) dyadic
fixtures' labels equal fixture-label + integer offset exactly.
"""

import math

import numpy as np
import pyarrow as pa
import pytest

from polylabel_rs_ray.geom.kernel import polylabel_one
from polylabel_rs_ray.sources.docs import (
    DYADIC_CYCLE_IDX,
    N_FIXTURES,
    attach_interleaved,
    doc_offsets,
)
from polylabel_rs_ray.sources.fixtures import FIXTURE_CYCLE, FIXTURES
from polylabel_rs_ray.stages.label import label_batch, label_points, rings_to_numpy

N_DOCS = 120


@pytest.fixture(scope="module")
def doc_table() -> pa.Table:
    ids = pa.table({"doc_id": pa.array(np.arange(N_DOCS, dtype=np.int64))})
    return attach_interleaved(ids)


def test_schema(doc_table):
    assert doc_table.column_names == ["doc_id", "doc_num", "spans", "rings", "tolerance"]
    assert doc_table.column("doc_id")[0].as_py() == "doc-0"
    spans0 = doc_table.column("spans")[1].as_py()
    assert spans0[0]["kind"] == "image" and spans0[0]["media_ref"] == "media://1/0"
    assert [s["offset"] for s in spans0] == list(range(len(spans0)))


def test_rings_roundtrip(doc_table):
    polys = rings_to_numpy(doc_table.column("rings"))
    i = 6  # square_with_hole at cycle index 6
    fx = FIXTURES[FIXTURE_CYCLE[i % N_FIXTURES]]
    dx, dy = doc_offsets(np.array([i]))
    expected = [np.asarray(r) + np.array([dx[0], dy[0]]) for r in fx.rings]
    assert len(polys[i]) == len(expected)
    for got, exp in zip(polys[i], expected):
        np.testing.assert_array_equal(got, exp)


def test_label_batch_matches_scalar_kernel(doc_table):
    out = label_batch(doc_table)
    polys = rings_to_numpy(doc_table.column("rings"))
    tols = doc_table.column("tolerance").to_numpy()
    lx = out.column("label_x").to_numpy()
    ly = out.column("label_y").to_numpy()
    ld = out.column("label_dist").to_numpy()
    la = out.column("area").to_numpy()
    for i in range(N_DOCS):
        x, y, d, a, e = polylabel_one(polys[i], tols[i])
        if math.isnan(x):
            assert math.isnan(lx[i])
        else:
            assert (lx[i], ly[i], ld[i], la[i]) == (x, y, d, a), i


def test_dyadic_translation_oracle(doc_table):
    out = label_batch(doc_table)
    lx = out.column("label_x").to_numpy()
    ly = out.column("label_y").to_numpy()
    dx, dy = doc_offsets(np.arange(N_DOCS, dtype=np.int64))
    for i in range(N_DOCS):
        f = i % N_FIXTURES
        if f not in DYADIC_CYCLE_IDX:
            continue
        fx = FIXTURES[FIXTURE_CYCLE[f]]
        bx, by, bd, ba, be = polylabel_one(fx.rings, fx.tolerance)
        if fx.kind == "sentinel":
            assert (lx[i], ly[i]) == (0.0, 0.0)
        else:
            assert (lx[i], ly[i]) == (bx + dx[i], by + dy[i]), i


def test_span_sequence_equality_through_stage(doc_table):
    out = label_batch(doc_table)
    assert out.column("spans").equals(doc_table.column("spans"))
    # element-wise too (kind, text, media_ref, order)
    for i in [0, 7, 55]:
        assert out.column("spans")[i].as_py() == doc_table.column("spans")[i].as_py()


def test_ray_dataset_label_stage(ray_session, doc_table, monkeypatch):
    import ray

    from polylabel_rs_ray.stages import label

    monkeypatch.setattr(label, "LABEL_BATCH_ROWS", 32)  # several batches
    ds = ray.data.from_arrow(doc_table)
    res = label_points(ds).sort("doc_num")
    got = res.to_pandas()
    ref = label_batch(doc_table)
    np.testing.assert_array_equal(got["label_x"].to_numpy(), ref.column("label_x").to_numpy())
    np.testing.assert_array_equal(got["label_dist"].to_numpy(), ref.column("label_dist").to_numpy())
    # spans survive the distributed pipeline in order
    assert got["spans"][3].tolist() == doc_table.column("spans")[3].as_py()


def test_f32_rings_column_label():
    """Generic-float parity (reference T: GeoFloat, lib.rs:336-339): an
    Arrow rings column of fixed_size_list<float,2> labels zero-copy; the
    result matches the f64 path within f32 coordinate quantization."""
    import pyarrow as pa

    from polylabel_rs_ray.stages.label import label_batch

    ring = [[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [1.0, 1.0], [1.0, 4.0],
            [0.0, 4.0], [0.0, 0.0]]
    fsl32 = pa.list_(pa.list_(pa.list_(pa.float32(), 2)))
    t = pa.table({
        "doc_num": pa.array([0], type=pa.int64()),
        "rings": pa.array([[ring]], type=fsl32),
        "tolerance": pa.array([0.1], type=pa.float64()),
    })
    out = label_batch(t)
    assert out.column("label_x")[0].as_py() == 0.5625
    assert out.column("label_y")[0].as_py() == 0.5625


def test_f32_api_dtype_roundtrip():
    from polylabel_rs_ray.api import label_position

    ext32 = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 4], [0, 4], [0, 0]],
                     dtype=np.float32)
    x, y = label_position(ext32, tolerance=0.1)
    assert x.dtype == np.float32 and y.dtype == np.float32
    assert (float(x), float(y)) == (0.5625, 0.5625)


def test_labeled_checkpoint_fingerprint_invalidation(tmp_path, monkeypatch):
    """Checkpoint lineage: the same source reuses its unit; a touched
    source (mtime change) or new code (``run.code_digest()``) rewrites it
    in place, so a stale checkpoint is never reused and each source and
    name keeps one tree."""
    import os
    import shutil
    import tempfile

    from polylabel_rs_ray import run
    from polylabel_rs_ray.pipelines.queries import _checkpoint

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    os.makedirs(tempfile.tempdir)
    writes = []

    def write(path):
        os.makedirs(path)
        writes.append(path)

    def checkpoint():
        return _checkpoint(str(tmp_path), "labeled", ["documents.parquet"], write)

    src = tmp_path / "documents.parquet"
    shutil.copy("/root/testdata/sf0.001/documents.parquet", src)
    p1 = checkpoint()
    assert checkpoint() == p1 and len(writes) == 1
    os.utime(src, (1_700_000_000, 1_700_000_000))
    assert checkpoint() == p1 and len(writes) == 2
    monkeypatch.setattr(run, "code_digest", lambda **kw: "0" * 16)
    assert checkpoint() == p1 and len(writes) == 3
    assert os.path.isdir(p1)
    root = os.path.join(tempfile.tempdir, "polylabel_ckpt")
    (source,) = os.listdir(root)
    assert os.listdir(os.path.join(root, source)) == ["labeled"]


def test_read_table_format_fallbacks(ray_session, tmp_path):
    """read_table reads only Lance or Parquet: a table in neither format
    is missing."""
    from polylabel_rs_ray.pipelines.table import read_table

    with pytest.raises(FileNotFoundError):
        read_table(str(tmp_path), "missing_table")


def test_labeled_checkpoint_stamps_the_lance_table(tmp_path, monkeypatch):
    """With Lance available, the documents table is the ``documents.lance``
    dataset dir, so the ``labeled`` stamp covers its files: touching one
    makes the unit commit again."""
    import os
    import tempfile

    from polylabel_rs_ray.pipelines.queries import _checkpoint
    from polylabel_rs_ray.pipelines import table

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    os.makedirs(tempfile.tempdir)
    monkeypatch.setattr(table, "have_lance", lambda: True)
    (tmp_path / "documents.parquet").write_bytes(b"parquet")
    frag = tmp_path / "documents.lance" / "data" / "0.lance"
    frag.parent.mkdir(parents=True)
    frag.write_bytes(b"lance")
    writes = []

    def write(path):
        os.makedirs(path)
        writes.append(path)

    def checkpoint():
        return _checkpoint(str(tmp_path), "labeled",
                           [table.table_path(str(tmp_path), "documents")], write)

    p1 = checkpoint()
    assert checkpoint() == p1 and len(writes) == 1
    os.utime(frag, (1_700_000_000, 1_700_000_000))
    assert checkpoint() == p1 and len(writes) == 2


def test_read_table_lance_dispatch(ray_session, tmp_path, monkeypatch):
    """The Lance branch (the production read path per the north-rule
    input_hint) dispatches to ray.data.read_lance with the column pruning
    passed through — exercised via an injected fake lance module +
    read_lance, since pylance is absent from this sandbox."""
    import sys
    import types

    import ray

    from polylabel_rs_ray.pipelines.table import read_table

    (tmp_path / "documents.lance").mkdir()
    # a parquet sibling too: lance must win when both exist
    import shutil

    shutil.copy(
        "/root/testdata/sf0.001/documents.parquet", tmp_path / "documents.parquet"
    )

    monkeypatch.setitem(sys.modules, "lance", types.ModuleType("lance"))
    calls = {}

    def fake_read_lance(path, columns=None, **kwargs):
        calls["path"] = path
        calls["columns"] = columns
        calls["kwargs"] = kwargs
        return ray.data.from_items([{"doc_id": 1, "lang": "en"}])

    monkeypatch.setattr(ray.data, "read_lance", fake_read_lance, raising=False)

    ds = read_table(str(tmp_path), "documents", columns=["doc_id", "lang"])
    assert calls["path"] == str(tmp_path / "documents.lance")
    assert calls["columns"] == ["doc_id", "lang"]
    assert ds.take_all() == [{"doc_id": 1, "lang": "en"}]
