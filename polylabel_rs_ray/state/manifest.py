"""Resumable partitioned output: per-partition Parquet + lineage manifest.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics".  Output layout:

    out_dir/
      part-00000/
        data.parquet
        MANIFEST.json     {partition, input_fingerprint, rows, bytes,
                           wall_s, written_at_unix, schema}
      part-00001/
        ...
      tiles/              optional tile output (``commit_dir``)
        data/             Ray's parquet files
        MANIFEST.json     {input_fingerprint, input, data_file, files, ...}
      _RUN_SUMMARY.json   this run's partitions, aggregated

A restart calls ``pending_partitions`` first and processes only partitions
whose manifest is missing or whose input fingerprint changed — each
partition is an independent unit of work, so a crashed run never repeats
finished work and never produces one giant file."""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from hashlib import sha256

import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST_NAME = "MANIFEST.json"
SUMMARY_NAME = "_RUN_SUMMARY.json"


def partition_dir(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, f"part-{idx:05d}")


def input_fingerprint(desc: dict) -> str:
    """Stable fingerprint of a partition's input description (paths, row
    ranges, config) — the lineage key deciding whether a finished partition
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
) -> dict:
    """Write one partition's data + manifest atomically: each file goes to
    a temp name and is renamed into place, data first and manifest last,
    so a crash mid-write leaves neither a torn ``data.parquet`` nor a
    'complete' partition."""
    pdir = partition_dir(out_dir, idx)
    os.makedirs(pdir, exist_ok=True)
    data_file = "data.parquet"
    tmp = os.path.join(pdir, data_file + ".tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(pdir, data_file))
    manifest = {
        "partition": idx,
        "input_fingerprint": input_fingerprint(desc),
        "input": desc,
        "data_file": data_file,
        "rows": table.num_rows,
        "bytes": table.nbytes,
        "wall_s": wall_s,
        "written_at_unix": time.time(),
        "schema": [f"{f.name}:{f.type}" for f in table.schema],
        "metrics": metrics or {},
    }
    _write_json(manifest_path(out_dir, idx), manifest)
    return manifest


def commit_dir(unit_dir: str, desc: dict, write_fn) -> bool:
    """Commit a multi-file output the way a partition is committed, as
    ``unit_dir/{data/, MANIFEST.json}``: ``write_fn(data_dir)`` writes into
    a temp dir, the dir is renamed into place, and the manifest is written
    last, so a crash at any point leaves nothing that reads as complete.
    Returns True, writing nothing, when ``unit_dir`` is already complete
    for ``desc``."""
    fp = input_fingerprint(desc)
    if _is_committed(unit_dir, fp):
        return True
    tmp = unit_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    write_fn(os.path.join(tmp, "data"))
    shutil.rmtree(unit_dir, ignore_errors=True)
    os.rename(tmp, unit_dir)
    _write_json(os.path.join(unit_dir, MANIFEST_NAME), {
        "input_fingerprint": fp,
        "input": desc,
        "data_file": "data",
        "files": sorted(os.listdir(os.path.join(unit_dir, "data"))),
        "written_at_unix": time.time(),
    })
    return False


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
    """Execute ``run_one(desc) -> pyarrow.Table`` for every pending
    partition, skipping complete ones (resume semantics).  Returns the run
    summary.  ``run_one`` typically builds and consumes a Ray Dataset
    pipeline restricted to that partition's input shard."""
    pending = pending_partitions(out_dir, parts)
    for i in pending:
        t0 = time.time()
        table = run_one(parts[i])
        write_partition(out_dir, i, table, parts[i], time.time() - t0)
    return write_summary(out_dir, len(parts),
                         {"resumed_skipped": len(parts) - len(pending)})
