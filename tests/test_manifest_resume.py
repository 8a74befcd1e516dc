"""Resumable partitioned runs: manifests, skip-on-resume, staleness."""

import json
import os

import pyarrow.parquet as pq
import pytest

from polylabel_rs_ray.state import manifest
from polylabel_rs_ray.state.manifest import (
    input_fingerprint,
    is_complete,
    manifest_path,
    pending_partitions,
)


def test_run_and_resume(ray_session, tmp_path):
    from polylabel_rs_ray.run import build_partition_descs, run

    out = str(tmp_path / "run1")
    s1 = run(out, n_docs=360, n_parts=4)
    assert s1["partitions"] == 4
    assert s1["rows"] == 360
    assert s1["resumed_skipped"] == 0

    # all partitions complete -> nothing pending
    parts = build_partition_descs(360, 4, 8, 5)
    assert pending_partitions(out, parts) == []

    # delete one manifest -> only that partition pending; resume redoes it
    os.remove(manifest_path(out, 2))
    assert pending_partitions(out, parts) == [2]
    s2 = run(out, n_docs=360, n_parts=4)
    assert s2["resumed_skipped"] == 3
    assert s2["rows"] == 360

    # outputs identical after resume (deterministic synthesis + kernel)
    t = pq.read_table(os.path.join(out, "part-00002", "data.parquet"))
    assert t.num_rows == 90
    assert "label_x" in t.column_names and "spans" in t.column_names

    # a changed input fingerprint marks the partition stale
    desc = dict(parts[2])
    desc["hi"] += 1
    assert not is_complete(out, 2, input_fingerprint(desc))
    assert is_complete(out, 2, input_fingerprint(parts[2]))


def test_run_with_more_partitions_than_docs_fails_before_any_work(ray_session, tmp_path):
    """Every partition holds at least one doc: asking for more partitions
    than docs is refused before a Dataset is built or a partition written."""
    import glob

    from polylabel_rs_ray.run import run

    out = str(tmp_path / "few")
    for n_parts in (4, 0):
        with pytest.raises(ValueError):
            run(out, 3, n_parts)
    assert glob.glob(os.path.join(out, "part-*")) == []


def test_tiles_phase(ray_session, tmp_path):
    from polylabel_rs_ray.run import run

    out = str(tmp_path / "run2")
    s = run(out, n_docs=180, n_parts=2, tiles=True)
    files = os.listdir(s["tiles_dir"])
    assert any(f.endswith(".parquet") for f in files)
    tiles = pq.read_table(s["tiles_dir"])
    assert tiles.column("n_points").to_pandas().sum() == 180

    with open(os.path.join(out, "_RUN_SUMMARY.json")) as f:
        summary = json.load(f)
    assert summary["rows"] == 180


def test_partition_labelled_once(ray_session, labelled_rows):
    """A checkpointed partition sends each of its rows through label_batch
    once, not once more to read the output schema."""
    from polylabel_rs_ray.run import build_partition_descs, run_label_partition

    committed = {}
    run_label_partition([build_partition_descs(600, 1, 8, 5)[0]], committed.__setitem__)
    out = committed[0]
    assert out.num_rows == 600
    assert labelled_rows() == 600


def test_partition_rows_in_doc_order(ray_session, tmp_path):
    """A partition spread over several label tasks comes back in doc_num
    order whatever order the tasks finish in, so two runs write the same
    data.parquet bytes."""
    from polylabel_rs_ray.run import run

    paths = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run(out, n_docs=1500, n_parts=1)
        paths.append(os.path.join(out, "part-00000", "data.parquet"))
    doc_num = pq.read_table(paths[0], columns=["doc_num"]).column("doc_num").to_pylist()
    assert doc_num == list(range(1500))
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()


def test_flagship_tiles_match_run_tiles(ray_session, tmp_path):
    """The flagship over a documents table of the ids ``0..n-1`` renders
    the same tile rows as ``run`` over ``n`` docs: both label
    ``range_docs([(0, n)])``."""
    import numpy as np
    import pyarrow as pa
    import ray

    from polylabel_rs_ray.pipelines.flagship import flagship_pipeline
    from polylabel_rs_ray.run import run

    n = 250
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(n)[::-1], type=pa.int64())}),
                   str(tmp_path / "documents.parquet"))
    ds = flagship_pipeline(str(tmp_path))
    # a group_map output may hold empty blocks without columns
    got = pa.concat_tables([b for b in ray.get(ds.to_arrow_refs())
                            if b.num_columns]).sort_by("tile_id")
    s = run(str(tmp_path / "out"), n, 2, tiles=True)
    want = pq.read_table(s["tiles_dir"]).sort_by("tile_id")
    assert got.num_rows == want.num_rows > 1
    assert got.select(want.column_names).to_pylist() == want.to_pylist()


def test_flagship_rejects_ids_not_from_zero(ray_session, tmp_path, monkeypatch):
    """A documents table whose ids are ``1..n`` raises ValueError naming
    the table before any Dataset is built."""
    import numpy as np
    import pyarrow as pa

    from polylabel_rs_ray.pipelines.flagship import flagship_pipeline
    from polylabel_rs_ray.sources import docs

    built = []
    monkeypatch.setattr(docs, "_synthesize", lambda ds: built.append(ds) or ds)
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(1, 101), type=pa.int64())}),
                   str(tmp_path / "documents.parquet"))
    with pytest.raises(ValueError, match="documents.parquet"):
        flagship_pipeline(str(tmp_path))
    assert built == []


def test_pass_is_one_execution(ray_session, tmp_path, monkeypatch, labelled_rows):
    """A pass over 4 pending partitions builds one Dataset and labels each
    row once; a second pass over the complete output builds none."""
    from polylabel_rs_ray import run as run_mod
    from polylabel_rs_ray.sources import docs

    built = []
    real = docs._synthesize

    def spy(ds):
        built.append(ds)
        return real(ds)

    monkeypatch.setattr(docs, "_synthesize", spy)
    out = str(tmp_path / "one")
    parts = run_mod.build_partition_descs(400, 4, 8, 5)
    s1 = manifest.run_partitioned(out, parts, run_mod.run_label_partition)
    assert (len(built), labelled_rows(), s1["rows"], s1["resumed_skipped"]) == (1, 400, 400, 0)
    # the ids of all four ranges are split once, not into blocks per range
    assert built[0].num_blocks() == docs.doc_blocks(400)
    s2 = manifest.run_partitioned(out, parts, run_mod.run_label_partition)
    assert (len(built), labelled_rows(), s2["resumed_skipped"]) == (1, 400, 4)


def test_wall_s_sums_to_the_pass(ray_session, tmp_path):
    """A partition's ``wall_s`` is the time since the previous commit of
    its pass, so the partitions of one pass sum to no more than the pass."""
    import time

    from polylabel_rs_ray import run as run_mod

    out = str(tmp_path / "wall")
    t0 = time.perf_counter()
    s = manifest.run_partitioned(out, run_mod.build_partition_descs(400, 4, 8, 5),
                                 run_mod.run_label_partition)
    wall = time.perf_counter() - t0
    walls = []
    for i in range(4):
        with open(manifest_path(out, i)) as f:
            walls.append(json.load(f)["wall_s"])
    assert all(w >= 0 for w in walls)
    assert s["wall_s_total"] == pytest.approx(sum(walls))
    assert 0 < s["wall_s_total"] <= wall


def test_failure_mid_pass_keeps_finished_partitions(ray_session, tmp_path, monkeypatch,
                                                    labelled_rows):
    """A label task that fails on the last partition's rows, after the
    other partitions are in, ends the pass with those partitions committed
    and the failed one pending; the resume labels only its rows."""
    import time

    import ray

    from polylabel_rs_ray import run as run_mod
    from polylabel_rs_ray.stages import label

    out = str(tmp_path / "fail")
    # 512-doc partitions: one label batch never holds two partitions' rows
    parts = run_mod.build_partition_descs(2048, 4, 8, 5)
    last = parts[-1]
    done = [manifest_path(out, i) for i in range(3)]
    counting = label.label_batch

    def failing(batch):
        if batch.column("doc_num").to_numpy().min() >= last["lo"]:
            # fail only once the other partitions are committed, whatever
            # order the label tasks run in
            deadline = time.monotonic() + 60
            while not all(map(os.path.exists, done)) and time.monotonic() < deadline:
                time.sleep(0.05)
            raise RuntimeError("label failed")
        return counting(batch)

    monkeypatch.setattr(label, "label_batch", failing)
    with pytest.raises((RuntimeError, ray.exceptions.RayError)):
        manifest.run_partitioned(out, parts, run_mod.run_label_partition)
    assert all(map(os.path.exists, done))
    assert not os.path.exists(manifest_path(out, 3))
    assert pending_partitions(out, parts) == [3]

    before = labelled_rows()
    monkeypatch.setattr(label, "label_batch", counting)
    s = manifest.run_partitioned(out, parts, run_mod.run_label_partition)
    assert labelled_rows() - before == last["hi"] - last["lo"]
    assert (s["resumed_skipped"], s["rows"]) == (3, 2048)


def test_perfbench_checkpoint_round_passes_its_checks(ray_session, tmp_path):
    """The benchmark's checkpoint_resume workload drives ``run_partitioned``
    and ``run_label_partition``; one small round of it passes every check
    the benchmark makes."""
    from perfbench import checks, workloads

    rnd = workloads.checkpoint_resume(41, 0, 36, parts=2, work_dir=str(tmp_path))
    verdict = checks.check_round("checkpoint_resume", rnd, 41, 0)
    assert verdict.failed == 0, verdict.notes


def _table(n):
    import pyarrow as pa

    return pa.table({"doc_id": pa.array(range(n), type=pa.int64())})


def test_torn_data_write_leaves_partition_pending(tmp_path, monkeypatch):
    """A crash inside the Parquet write leaves no torn ``data.parquet`` and
    no manifest: the partition stays pending, and a finished file from an
    earlier write survives intact."""
    from polylabel_rs_ray.state import manifest

    out = str(tmp_path / "torn")
    desc = {"kind": "test", "lo": 0, "hi": 8}
    data = os.path.join(manifest.partition_dir(out, 0), "data.parquet")
    real = manifest.pq.write_table

    def torn(table, where, *a, **kw):
        with open(where, "wb") as f:
            f.write(b"PAR1\x00partial")
        raise OSError("disk full")

    monkeypatch.setattr(manifest.pq, "write_table", torn)
    try:
        manifest.write_partition(out, 0, _table(8), desc, 0.0)
    except OSError:
        pass
    assert not os.path.exists(data)
    assert manifest.pending_partitions(out, [desc]) == [0]

    # a rewrite that crashes keeps the earlier complete file readable
    monkeypatch.setattr(manifest.pq, "write_table", real)
    manifest.write_partition(out, 0, _table(8), desc, 0.0)
    os.remove(manifest.manifest_path(out, 0))
    monkeypatch.setattr(manifest.pq, "write_table", torn)
    try:
        manifest.write_partition(out, 0, _table(9), desc, 0.0)
    except OSError:
        pass
    assert pq.read_table(data).num_rows == 8
    assert manifest.pending_partitions(out, [desc]) == [0]


def _unit(kind, tmp_path):
    """(unit dir, its data path, commit(desc)) for a partition (a file
    unit) or a multi-file unit like the tiles (a dir unit); the data holds
    ``desc["rows"]`` rows."""
    out = str(tmp_path / "out")
    if kind == "file":
        unit = manifest.partition_dir(out, 0)
        return unit, os.path.join(unit, "data.parquet"), lambda desc: (
            manifest.write_partition(out, 0, _table(desc["rows"]), desc, 0.0))

    def write(path, desc):
        os.makedirs(path)
        pq.write_table(_table(desc["rows"] - 1), os.path.join(path, "0.parquet"))
        pq.write_table(_table(1), os.path.join(path, "1.parquet"))

    unit = os.path.join(out, "tiles")
    return unit, os.path.join(unit, "data"), lambda desc: manifest.commit_dir(
        unit, desc, lambda path: write(path, desc))


def _committed(unit, desc):
    return manifest._is_committed(unit, input_fingerprint(desc))


@pytest.mark.parametrize("kind", ["file", "dir"])
@pytest.mark.parametrize("crash_at", ["write", "remove", "rename"])
def test_crashed_commit_reads_as_incomplete(tmp_path, monkeypatch, kind, crash_at):
    """A commit that dies in its write function, at the stale unit's
    removal or at the rename leaves nothing that reads as complete and no
    temp dir; the earlier unit stays complete and readable up to the
    rename."""
    import shutil

    unit, data, commit = _unit(kind, tmp_path)
    old, new = {"rows": 8}, {"rows": 9}
    commit(old)

    def crash(*a, **kw):
        raise OSError("crash")

    real_rmtree = shutil.rmtree
    if crash_at == "write":
        monkeypatch.setattr(manifest.pq, "write_table", crash)
    elif crash_at == "remove":
        monkeypatch.setattr(manifest.shutil, "rmtree", lambda path, **kw: (
            crash() if path == unit else real_rmtree(path, **kw)))
    else:
        monkeypatch.setattr(manifest.os, "rename", crash)
    with pytest.raises(OSError, match="crash"):
        commit(new)
    monkeypatch.undo()

    assert not _committed(unit, new)
    if crash_at == "rename":
        assert not os.path.exists(unit)
    else:
        assert _committed(unit, old) and pq.read_table(data).num_rows == 8
    assert os.listdir(os.path.dirname(unit)) == ([] if crash_at == "rename"
                                                 else [os.path.basename(unit)])
    commit(new)
    assert _committed(unit, new) and pq.read_table(data).num_rows == 9


@pytest.mark.parametrize("kind", ["file", "dir"])
def test_racing_commits_leave_one_unit(tmp_path, monkeypatch, kind):
    """A second commit of the same unit that runs and finishes while the
    first one is still writing (a racing process) leaves one complete unit
    and no temp dir."""
    unit, data, commit = _unit(kind, tmp_path)
    desc = {"rows": 8}
    real = manifest.pq.write_table
    raced = []

    def racing(*a, **kw):
        if not raced:
            raced.append(True)
            commit(desc)
            assert _committed(unit, desc)
        return real(*a, **kw)

    monkeypatch.setattr(manifest.pq, "write_table", racing)
    commit(desc)
    assert raced and _committed(unit, desc)
    assert pq.read_table(data).num_rows == 8
    assert os.listdir(os.path.dirname(unit)) == [os.path.basename(unit)]


def test_code_digest_change_makes_every_partition_stale(tmp_path, monkeypatch):
    from polylabel_rs_ray import run as run_mod
    from polylabel_rs_ray.state.manifest import write_partition

    out = str(tmp_path / "lineage")
    parts = run_mod.build_partition_descs(40, 4, 8, 5)
    for i, desc in enumerate(parts):
        write_partition(out, i, _table(desc["hi"] - desc["lo"]), desc, 0.0)
    # unchanged code: resume skips every finished partition
    assert pending_partitions(out, run_mod.build_partition_descs(40, 4, 8, 5)) == []

    monkeypatch.setattr(run_mod, "code_digest", lambda: "0" * 16)
    changed = run_mod.build_partition_descs(40, 4, 8, 5)
    assert pending_partitions(out, changed) == [0, 1, 2, 3]


def _copy_digest_inputs(src_root, dst_root, edit="geom/polylabel.c", suffix=b""):
    import shutil

    for top in ("geom", "stages", "sources"):
        shutil.copytree(os.path.join(src_root, top), os.path.join(dst_root, top),
                        ignore=shutil.ignore_patterns("_build", "__pycache__"))
    with open(os.path.join(dst_root, edit), "ab") as f:
        f.write(suffix)


def test_code_digest_covers_the_c_source(tmp_path):
    """Changing only the compiled kernel's source changes the digest, so
    checkpoints written by the old search are re-run; so does an edit to
    ``stages/tiles.py``, so committed tiles are rendered again."""
    from polylabel_rs_ray import run as run_mod

    same, edited = str(tmp_path / "same"), str(tmp_path / "edited")
    tiles = str(tmp_path / "tiles")
    _copy_digest_inputs(run_mod._PKG, same)
    _copy_digest_inputs(run_mod._PKG, edited, suffix=b"/* edited */\n")
    _copy_digest_inputs(run_mod._PKG, tiles, "stages/tiles.py", b"# edited\n")
    assert run_mod.code_digest(same) == run_mod.code_digest()
    assert run_mod.code_digest(edited) != run_mod.code_digest()
    assert run_mod.code_digest(tiles) != run_mod.code_digest()


def _tile_counts(summary):
    """(rows, distinct tile ids, points) of a run's tile output."""
    t = pq.read_table(summary["tiles_dir"])
    return (t.num_rows, len(set(t.column("tile_id").to_pylist())),
            int(t.column("n_points").to_pandas().sum()))


def test_rerun_keeps_one_copy_of_the_tiles(ray_session, tmp_path):
    """A second run into the same output dir finds the tiles committed for
    the same partitions and code and leaves them alone: one row per tile,
    every point once."""
    from polylabel_rs_ray.run import run

    out = str(tmp_path / "rerun")
    first = run(out, n_docs=180, n_parts=2, tiles=True)
    again = run(out, n_docs=180, n_parts=2, tiles=True)
    rows, ids, points = _tile_counts(again)
    assert rows == ids and points == 180
    assert _tile_counts(first) == (rows, ids, points)
    assert again["tiles_skipped"] is True


def test_stale_partitions_are_not_counted(ray_session, tmp_path):
    """A run with fewer partitions than an earlier run into the same dir
    sums and renders exactly its own partitions, not the leftovers, and
    deletes the leftovers."""
    from polylabel_rs_ray.run import run

    out = str(tmp_path / "shrink")
    run(out, n_docs=180, n_parts=4)
    s = run(out, n_docs=180, n_parts=2, tiles=True)
    assert (s["partitions"], s["rows"]) == (2, 180)
    assert sorted(n for n in os.listdir(out) if n.startswith("part-")) == [
        "part-00000", "part-00001"]
    with open(os.path.join(out, "_RUN_SUMMARY.json")) as f:
        assert json.load(f)["rows"] == 180
    assert _tile_counts(s)[2] == 180


def test_partition_leaves_global_data_context(ray_session, monkeypatch):
    """run_label_partition switches the CPU reservation off for its own
    Dataset and the Datasets derived from it; the process-global context
    keeps its value."""
    import ray

    from polylabel_rs_ray.run import build_partition_descs, run_label_partition
    from polylabel_rs_ray.stages import cells

    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx, "op_resource_reservation_enabled", True)
    seen = []
    real = cells.encode_stage

    def spy(ds, *a):
        seen.append(ds.context.op_resource_reservation_enabled)
        return real(ds, *a)

    monkeypatch.setattr(cells, "encode_stage", spy)
    committed = {}
    run_label_partition([build_partition_descs(40, 1, 8, 5)[0]], committed.__setitem__)
    out = committed[0]
    assert out.num_rows == 40
    assert seen == [False]  # the labelled Dataset inherited the flag
    assert ray.data.DataContext.get_current().op_resource_reservation_enabled is True
