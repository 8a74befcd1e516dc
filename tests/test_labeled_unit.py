"""The registry's ``labeled`` unit is a ``run`` output over the documents
table's ids: ``pipelines.queries.labeled_docs`` reads exactly that run's
partitions and has no label chain of its own."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(sf_dir, ids):
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}),
                   os.path.join(sf_dir, "documents.parquet"))


@pytest.fixture
def sf_dir(tmp_path, monkeypatch):
    """A documents table of ids 0..699 and a temp dir of its own for the
    registry's units."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    os.makedirs(tempfile.tempdir)
    sf = tmp_path / "sf"
    sf.mkdir()
    _write_docs(sf, np.arange(700))
    return str(sf)


def _rows(ds):
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("doc_num")


def test_labeled_docs_needs_dense_ids(sf_dir):
    """Every label is a function of its id, and the unit is a run over
    0..n-1; a table with other ids is refused, naming the table."""
    from polylabel_rs_ray.pipelines.queries import labeled_docs

    _write_docs(sf_dir, np.arange(1, 701))
    with pytest.raises(ValueError, match="documents.parquet"):
        labeled_docs(sf_dir)


def test_labeled_docs_is_a_run_over_the_ids(ray_session, sf_dir, tmp_path):
    """Sorted by doc_num, the unit's rows are the concatenated partitions of
    a ``run`` over the same ids, cell and tile ids included."""
    from polylabel_rs_ray import run
    from polylabel_rs_ray.pipelines.queries import labeled_docs
    from polylabel_rs_ray.state.manifest import partition_dir

    got = _rows(labeled_docs(sf_dir))
    ref = str(tmp_path / "ref")
    run.run(ref, 700, 3)
    want = pa.concat_tables(
        pq.read_table(os.path.join(partition_dir(ref, i), "data.parquet")) for i in range(3))
    assert "cell_id" in got.column_names and "tile_id" in got.column_names
    assert got.column_names == want.column_names
    assert got.equals(want)


def test_labeled_docs_ignores_the_table_mtime(ray_session, sf_dir, labelled_rows):
    """A documents table rewritten with the same ids labels no row again;
    each call checks the unit's manifests, so a partition that lost its
    manifest, and only that one, is labelled once more."""
    from polylabel_rs_ray.pipelines.queries import _unit_dir, labeled_docs
    from polylabel_rs_ray.state.manifest import manifest_path

    first = _rows(labeled_docs(sf_dir))
    assert labelled_rows() == 700
    path = os.path.join(sf_dir, "documents.parquet")
    _write_docs(sf_dir, np.arange(700))
    os.utime(path, (1_700_000_000, 1_700_000_000))
    assert _rows(labeled_docs(sf_dir)).equals(first)
    assert labelled_rows() == 700
    os.remove(manifest_path(_unit_dir(sf_dir, "labeled"), 1))  # docs 233..465
    assert _rows(labeled_docs(sf_dir)).equals(first)
    assert labelled_rows() == 700 + 233
