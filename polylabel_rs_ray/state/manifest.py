"""Resumable partitioned output: per-partition Parquet + lineage manifest.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics".  Every output is a unit committed by ``commit_dir``:

    out_dir/
      part-00000/
        data.parquet
        MANIFEST.json     {partition, input_fingerprint, input, data_file,
                           rows, bytes, wall_s, written_at_unix, schema,
                           metrics}
      part-00001/
        ...
      tiles/              optional tile output
        data/             Ray's parquet files
        MANIFEST.json     {input_fingerprint, input, data_file, written_at_unix}
      _RUN_SUMMARY.json   this run's partitions, aggregated

The query registry's checkpoints are units of the same shape, one per
source and name: ``$TMPDIR/polylabel_ckpt/<source>/<name>/{data/,
MANIFEST.json}``.

One commit rule: the unit's data and manifest are written into a fresh
temp dir beside it (``<name>.tmp-XXXXXXXX``), a stale unit is removed,
and one rename publishes both.  A crash at any point leaves nothing that
reads as complete (at most a temp dir, which is never read), and two
commits of one unit never share a temp dir.  A restart calls
``pending_partitions`` first and processes only partitions whose manifest
is missing or whose input fingerprint changed, so a crashed run never
repeats finished work and never produces one giant file.

``run_partitioned`` labels all pending partitions in one pass and commits
them on the driver, one at a time, in the order their rows complete; the
run summary is written after the last of them."""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import time
from hashlib import sha256

import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST_NAME = "MANIFEST.json"
SUMMARY_NAME = "_RUN_SUMMARY.json"


def partition_dir(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, f"part-{idx:05d}")


def input_fingerprint(desc: dict) -> str:
    """Stable fingerprint of a unit's input description (paths, row
    ranges, config) — the lineage key deciding whether a finished unit
    can be skipped on resume."""
    return sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()[:24]


def manifest_path(out_dir: str, idx: int) -> str:
    return os.path.join(partition_dir(out_dir, idx), MANIFEST_NAME)


def _write_json(path: str, obj: dict, **kw) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, **kw)
    os.replace(tmp, path)


def _is_committed(unit_dir: str, fingerprint: str) -> bool:
    try:
        with open(os.path.join(unit_dir, MANIFEST_NAME)) as f:
            m = json.load(f)
        return m.get("input_fingerprint") == fingerprint and os.path.exists(
            os.path.join(unit_dir, m["data_file"])
        )
    except (FileNotFoundError, json.JSONDecodeError, KeyError):
        return False


def is_complete(out_dir: str, idx: int, fingerprint: str) -> bool:
    return _is_committed(partition_dir(out_dir, idx), fingerprint)


def pending_partitions(out_dir: str, parts: list[dict]) -> list[int]:
    """Indices of partitions still needing work (missing/stale manifest)."""
    return [
        i for i, desc in enumerate(parts)
        if not is_complete(out_dir, i, input_fingerprint(desc))
    ]


def write_partition(
    out_dir: str, idx: int, table: pa.Table, desc: dict, wall_s: float,
    metrics: dict | None = None,
) -> dict | None:
    """Commit one partition as ``part-NNNNN/{data.parquet, MANIFEST.json}``;
    returns its manifest, or None when it was already complete."""
    return commit_dir(
        partition_dir(out_dir, idx), desc,
        lambda path: pq.write_table(table, path), "data.parquet",
        partition=idx,
        rows=table.num_rows,
        bytes=table.nbytes,
        wall_s=wall_s,
        schema=[f"{f.name}:{f.type}" for f in table.schema],
        metrics=metrics or {},
    )


def commit_dir(unit_dir: str, desc: dict, write_fn, data_file: str = "data",
               **fields) -> dict | None:
    """Commit one output unit as ``unit_dir/{<data_file>, MANIFEST.json}``:
    ``write_fn(path)`` writes the data into a fresh temp dir beside the
    unit, the manifest (lineage, ``fields``) follows it there, a stale unit
    is removed, and one rename publishes both.  Returns the manifest, or
    None, writing nothing, when ``unit_dir`` is already complete for
    ``desc``.  Of two racing commits of one input, the first to finish
    is kept."""
    fp = input_fingerprint(desc)
    if _is_committed(unit_dir, fp):
        return None
    parent, name = os.path.split(os.path.abspath(unit_dir))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}.tmp-", dir=parent)
    try:
        write_fn(os.path.join(tmp, data_file))
        manifest = {"input_fingerprint": fp, "input": desc, "data_file": data_file,
                    **fields, "written_at_unix": time.time()}
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as f:
            json.dump(manifest, f)
        if not _is_committed(unit_dir, fp):
            shutil.rmtree(unit_dir, ignore_errors=True)
            try:
                os.rename(tmp, unit_dir)
            except OSError:
                if not _is_committed(unit_dir, fp):
                    raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return manifest


def write_summary(out_dir: str, n_parts: int, extra: dict | None = None) -> dict:
    """Aggregate the manifests of exactly this run's partitions, indices
    ``0 .. n_parts - 1``, into the run summary; partitions a different run
    left behind in ``out_dir`` are not counted."""
    manifests = []
    for i in range(n_parts):
        with open(manifest_path(out_dir, i)) as f:
            manifests.append(json.load(f))
    summary = {
        "partitions": len(manifests),
        "rows": sum(m["rows"] for m in manifests),
        "bytes": sum(m["bytes"] for m in manifests),
        "wall_s_total": sum(m["wall_s"] for m in manifests),
        **(extra or {}),
    }
    _write_json(os.path.join(out_dir, SUMMARY_NAME), summary, indent=1)
    return summary


def remove_partitions_from(out_dir: str, n_parts: int) -> None:
    """Delete the partitions with index ``n_parts`` or above that an
    earlier, larger run left in ``out_dir``.  A crash part-way leaves a
    partition without its data or its manifest, which never reads as
    complete."""
    for name in os.listdir(out_dir):
        m = re.fullmatch(r"part-(\d+)", name)
        if m and int(m.group(1)) >= n_parts:
            shutil.rmtree(os.path.join(out_dir, name))


def run_partitioned(out_dir: str, parts: list[dict], run_one) -> dict:
    """Run every pending partition, skipping complete ones (resume
    semantics), and return the run summary.

    When any partition is pending, ``run_one(descs, commit)`` is called
    once with the pending partitions' descriptions; it labels them all in
    one pass and calls ``commit(j, table)`` once for each ``descs[j]``, in
    the order their rows complete.  Each commit writes that partition
    through ``write_partition`` (one ``commit_dir`` unit) before it
    returns, so a failure later in the pass keeps every partition
    committed before it.  A partition's manifest ``wall_s`` is the time
    since the previous commit of the pass, or since the pass started, so
    the summary's ``wall_s_total`` is the pass's label time up to its last
    commit."""
    pending = pending_partitions(out_dir, parts)
    if pending:
        last = time.perf_counter()

        def commit(j: int, table: pa.Table) -> None:
            nonlocal last
            now = time.perf_counter()
            i = pending[j]
            write_partition(out_dir, i, table, parts[i], now - last)
            last = now

        run_one([parts[i] for i in pending], commit)
    return write_summary(out_dir, len(parts),
                         {"resumed_skipped": len(parts) - len(pending)})
