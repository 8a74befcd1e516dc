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
      _RUN_SUMMARY.json   aggregated metrics (written by the driver side)

A restart calls ``pending_partitions`` first and processes only partitions
whose manifest is missing or whose input fingerprint changed — each
partition is an independent unit of work, so a crashed run never repeats
finished work and never produces one giant file."""

from __future__ import annotations

import json
import os
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


def is_complete(out_dir: str, idx: int, fingerprint: str) -> bool:
    try:
        with open(manifest_path(out_dir, idx)) as f:
            m = json.load(f)
        return m.get("input_fingerprint") == fingerprint and os.path.exists(
            os.path.join(partition_dir(out_dir, idx), m["data_file"])
        )
    except (FileNotFoundError, json.JSONDecodeError, KeyError):
        return False


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
    tmp = manifest_path(out_dir, idx) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, manifest_path(out_dir, idx))
    return manifest


def write_summary(out_dir: str, extra: dict | None = None) -> dict:
    """Aggregate every partition manifest into the run summary."""
    parts = []
    for name in sorted(os.listdir(out_dir)):
        mp = os.path.join(out_dir, name, MANIFEST_NAME)
        if os.path.exists(mp):
            with open(mp) as f:
                parts.append(json.load(f))
    summary = {
        "partitions": len(parts),
        "rows": sum(p["rows"] for p in parts),
        "bytes": sum(p["bytes"] for p in parts),
        "wall_s_total": sum(p["wall_s"] for p in parts),
        **(extra or {}),
    }
    with open(os.path.join(out_dir, SUMMARY_NAME), "w") as f:
        json.dump(summary, f, indent=1)
    return summary


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
    return write_summary(out_dir, {"resumed_skipped": len(parts) - len(pending)})
