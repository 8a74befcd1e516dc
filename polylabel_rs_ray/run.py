"""CLI runner: the flagship pipeline with resumable partitioned output.

    python -m polylabel_rs_ray.run --out /tmp/labels_run --n-docs 20000 \
        --partitions 16 [--tiles] [--num-cpus 32]

Phase 1 (resumable): the pending doc-id-range partitions run the engine's
one chain, ``stages.label.labeled_rows`` over ``sources.docs.range_docs``
(synthesize -> label -> cell-encode), as one streaming Dataset execution;
the driver commits each partition, a parquet file + lineage manifest, as
soon as all its rows are in.  The flagship runs the same chain over
``range_docs([(0, n)])``.  A re-run skips partitions whose manifest
matches the input fingerprint and builds no Dataset when none is pending.
Phase 2: tile rendering over exactly this run's partitions (the
``group_map`` on tile_id), committed beside them like a partition and
skipped when its manifest matches.  Once the run summary is written, the
partitions an earlier run with more partitions left behind are deleted.

On a multi-node deployment this module is the ``ray job submit`` entry;
partition count scales with cluster size and doc-id ranges shard the input
table without coordination."""

from __future__ import annotations

import argparse
import functools
import os
import time
from hashlib import sha256

import numpy as np
import pyarrow as pa


_PKG = os.path.dirname(os.path.abspath(__file__))
ENGINE_DIRS = ("geom", "stages", "sources")


@functools.cache
def code_digest(root: str = _PKG, dirs: tuple[str, ...] = ENGINE_DIRS) -> str:
    """Digest of every source and data file under ``root``'s ``dirs``
    (build output and bytecode skipped).  The default, ``geom/``,
    ``stages/`` and ``sources/``, is the code that computes partition and
    tile rows; their descriptions carry it, so a code change makes every
    checkpointed output stale.  Computed once per process and ``dirs``."""
    h = sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(set(dirnames) - {"_build", "__pycache__"})
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build_partition_descs(n_docs: int, n_parts: int, cell_res: int, tile_res: int) -> list[dict]:
    """``n_parts`` contiguous doc-id ranges over ``0 .. n_docs - 1``, none
    empty; raises ValueError, before any work, unless
    ``1 <= n_parts <= n_docs``."""
    if not 1 <= n_parts <= n_docs:
        raise ValueError(f"{n_parts} partitions need 1 <= partitions <= docs ({n_docs})")
    bounds = np.linspace(0, n_docs, n_parts + 1, dtype=np.int64)
    return [
        {
            "kind": "doc_id_range",
            "lo": int(bounds[i]),
            "hi": int(bounds[i + 1]),
            "cell_res": cell_res,
            "tile_res": tile_res,
            "pipeline": f"label+cells:{code_digest()}",
        }
        for i in range(n_parts)
    ]


def run_label_partition(descs: list[dict], commit) -> None:
    """Label the doc-id ranges of ``descs`` in one Dataset execution and
    call ``commit(j, table)`` for ``descs[j]`` as soon as all of its
    ``hi - lo`` rows are in, with the rows sorted by ``doc_num``.  Blocks
    arrive in task-completion order, and a label task may hold rows of
    several partitions; the sort makes a partition's rows, and so its
    data.parquet bytes, reproducible.  The commits run on the driver, one
    at a time, while later blocks are still being labelled."""
    import ray

    from .sources import docs
    from .stages import label

    cell_res, tile_res = descs[0]["cell_res"], descs[0]["tile_res"]
    if any((d["cell_res"], d["tile_res"]) != (cell_res, tile_res) for d in descs):
        raise ValueError("the partitions of one pass must share cell_res and tile_res")
    order = sorted(range(len(descs)), key=lambda j: descs[j]["lo"])
    los = np.array([descs[j]["lo"] for j in order], dtype=np.int64)
    missing = {j: d["hi"] - d["lo"] for j, d in enumerate(descs)}
    pieces: dict[int, list[pa.Table]] = {j: [] for j in missing}

    ds = docs.range_docs([(d["lo"], d["hi"]) for d in descs])
    # one dominant compute stage -> per-op CPU reservation only starves it.
    # The Dataset holds its own copy of the context, and every Dataset
    # derived from it below shares that copy; the process-global one stays.
    ds.context.op_resource_reservation_enabled = False
    ds = label.labeled_rows(ds, cell_res, tile_res)
    ds = ds.drop_columns(["rings"])  # labels + lineage only in the sink
    # The plan runs once, streaming.  Ref bundles come in task-completion
    # order; iter_batches would hold a finished block back behind a slower
    # task's.  A partition's output is bounded by construction (n_docs /
    # n_parts rows), so holding the blocks of the partitions not yet
    # complete is a small-result buffer.
    blocks = (ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks)
    for block in blocks:
        owner = np.searchsorted(los, block.column("doc_num").to_numpy(), side="right") - 1
        for k in np.unique(owner):
            j = order[k]
            rows = block.filter(pa.array(owner == k))
            pieces[j].append(rows)
            missing[j] -= rows.num_rows
            if missing[j] == 0:
                commit(j, pa.concat_tables(pieces.pop(j)).sort_by("doc_num"))
    if pieces:
        raise RuntimeError(f"partitions {sorted(pieces)} did not receive all their rows")


def run(out_dir: str, n_docs: int, n_parts: int, *, tiles: bool = False) -> dict:
    from .config import DEFAULT_CELL_RES, DEFAULT_TILE_RES
    from .state.manifest import remove_partitions_from, run_partitioned, write_summary

    parts = build_partition_descs(n_docs, n_parts, DEFAULT_CELL_RES, DEFAULT_TILE_RES)
    t0 = time.time()
    summary = run_partitioned(out_dir, parts, run_label_partition)
    summary["label_wall_s"] = time.time() - t0
    if tiles:
        summary["tiles_skipped"] = run_tiles(out_dir, parts)
        summary["tiles_dir"] = os.path.join(out_dir, "tiles", "data")
    summary = write_summary(out_dir, n_parts, summary)
    remove_partitions_from(out_dir, n_parts)
    return summary


def run_tiles(out_dir: str, parts: list[dict]) -> bool:
    """Render the tiles of exactly this run's partitions into
    ``out_dir/tiles``, committed like a partition.  Its fingerprint covers
    the partitions' fingerprints and ``code_digest()``; returns True when a
    complete matching output was already there and nothing ran."""
    import ray

    from .stages.tiles import render_tiles
    from .state.manifest import commit_dir, input_fingerprint, partition_dir

    desc = {"kind": "tiles", "code": code_digest(),
            "partitions": [input_fingerprint(d) for d in parts]}
    files = [os.path.join(partition_dir(out_dir, i), "data.parquet")
             for i in range(len(parts))]

    def write(tmp: str) -> None:
        ds = ray.data.read_parquet(files, columns=["tile_id", "label_x", "label_y"])
        render_tiles(ds).write_parquet(tmp)

    return commit_dir(os.path.join(out_dir, "tiles"), desc, write) is None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--n-docs", type=int, default=20_000)
    ap.add_argument("--partitions", type=int, default=16)
    ap.add_argument("--tiles", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    summary = run(args.out, args.n_docs, args.partitions, tiles=args.tiles)
    print(summary)
    ray.shutdown()


if __name__ == "__main__":
    main()
