"""CLI runner: the flagship pipeline with resumable partitioned output.

    python -m polylabel_rs_ray.run --out /tmp/labels_run --n-docs 20000 \
        --partitions 16 [--tiles] [--num-cpus 32]

Phase 1 (resumable): each doc-id-range partition runs the engine's one
chain, ``stages.label.labeled_rows`` over ``sources.docs.range_docs``
(synthesize -> label -> cell-encode), into a per-partition parquet +
lineage manifest; the flagship runs the same chain over ``read_docs``.  A
re-run skips partitions whose manifest matches the input fingerprint.
Phase 2: tile rendering over the labeled output (the groupby(tile_id)
shuffle), written beside it.

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


@functools.cache
def code_digest(root: str = _PKG) -> str:
    """Digest of the source and data under ``root`` (this package) that
    compute a partition's rows: the kernel and its C search loop, the label
    and cell stages, and the doc and fixture sources.  Partition
    descriptions carry it, so a code change makes every checkpointed
    partition stale.  Computed once per process."""
    h = sha256()
    for rel in ("geom/kernel.py", "geom/polylabel.c", "stages/label.py",
                "stages/cells.py", "sources/docs.py", "sources/fixtures.py",
                "sources/fixture_data.npz"):
        h.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build_partition_descs(n_docs: int, n_parts: int, cell_res: int, tile_res: int) -> list[dict]:
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


def run_label_partition(desc: dict) -> pa.Table:
    import ray

    from .sources import docs
    from .stages import label

    ds = docs.range_docs(desc["lo"], desc["hi"])
    # one dominant compute stage -> per-op CPU reservation only starves it.
    # The Dataset holds its own copy of the context, and every Dataset
    # derived from it below shares that copy; the process-global one stays.
    ds.context.op_resource_reservation_enabled = False
    ds = label.labeled_rows(ds, desc["cell_res"], desc["tile_res"])
    ds = ds.drop_columns(["rings"])  # labels + lineage only in the sink
    # one partition's output is bounded by construction (n_docs / n_parts
    # rows), so collecting its blocks to write a single partition file is a
    # small-result materialization, not a whole-dataset one.  The plan runs
    # once in materialize(): to_arrow_refs() on the lazy plan would first
    # run it under a row limit to read the schema, labelling every row twice.
    # Blocks arrive in task-completion order; sorting by the unique doc_num
    # makes a partition's rows, and so its data.parquet bytes, reproducible.
    return pa.concat_tables(ray.get(ds.materialize().to_arrow_refs())).sort_by("doc_num")


def run(out_dir: str, n_docs: int, n_parts: int, *, tiles: bool = False,
        cell_res: int | None = None, tile_res: int | None = None) -> dict:
    from .config import DEFAULT_CELL_RES, DEFAULT_TILE_RES
    from .state.manifest import run_partitioned, write_summary

    cell_res = cell_res or DEFAULT_CELL_RES
    tile_res = tile_res or DEFAULT_TILE_RES
    parts = build_partition_descs(n_docs, n_parts, cell_res, tile_res)
    t0 = time.time()
    summary = run_partitioned(out_dir, parts, run_label_partition)
    summary["label_wall_s"] = time.time() - t0

    if tiles:
        import ray

        from .stages.tiles import render_tiles

        ds = ray.data.read_parquet(
            [os.path.join(out_dir, d, "data.parquet") for d in sorted(os.listdir(out_dir))
             if d.startswith("part-")],
            columns=["tile_id", "label_x", "label_y"],
        )
        tile_out = os.path.join(out_dir, "tiles")
        render_tiles(ds).write_parquet(tile_out)
        summary["tiles_dir"] = tile_out
    return write_summary(out_dir, summary)


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
