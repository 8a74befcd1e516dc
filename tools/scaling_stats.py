"""Per-stage execution-stats capture for the flagship at one parallelism level.

    python tools/scaling_stats.py --num-cpus 8  --out STATS_r3_flagship_8cpu.txt
    python tools/scaling_stats.py --num-cpus 32 --out STATS_r3_flagship_32cpu.txt
    python tools/scaling_stats.py --num-cpus 8 --reservation on   # quantify
        the streaming executor's per-op CPU reservation (bench disables it)

Runs the same synthesized-docs flagship as ``bench.py --headline-only`` in a
fresh Ray session and appends ``Dataset.stats()`` (per-operator wall/cpu/rows,
scheduling breakdown) to the artifact.  This is the per-stage evidence the
two-cluster-size protocol in RUNBOOK.md asks for at each cluster size; on a
real cluster the identical script runs under ``ray job submit`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def run(num_cpus: int, docs: int, reservation: bool) -> tuple[dict, str]:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from polylabel_rs_ray.sources.docs import range_docs
    from polylabel_rs_ray.stages.label import labeled_rows
    from polylabel_rs_ray.stages.tiles import render_tiles

    ray.data.DataContext.get_current().op_resource_reservation_enabled = reservation

    # warmup: spin up workers so the measured run times the pipeline
    ray.data.range(1000).map_batches(lambda b: b, batch_format="pyarrow").count()

    t0 = time.time()
    ds = labeled_rows(range_docs([(0, docs)]))
    tiles = render_tiles(ds.select_columns(["tile_id", "label_x", "label_y"]))
    # materialize so stats() reports THIS execution (count() runs a plan
    # copy whose stats are dropped); the output is tile rows — driver-small
    tiles = tiles.materialize()
    n_tiles = tiles.count()
    wall = time.time() - t0
    stats = tiles.stats()
    summary = {
        "num_cpus": num_cpus,
        "docs": docs,
        "docs_per_s": round(docs / wall, 1),
        "wall_s": round(wall, 3),
        "n_tiles": n_tiles,
        "op_resource_reservation_enabled": reservation,
        "loadavg_1min_at_start": None,  # filled by caller before init
    }
    ray.shutdown()
    return summary, stats


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--num-cpus", type=int, default=8)
    ap.add_argument("--docs", type=int,
                    default=int(os.environ.get("GRAFT_BENCH_DOCS", "120000")))
    ap.add_argument("--reservation", choices=["on", "off"], default="off")
    ap.add_argument("--out", default=None,
                    help="artifact file; stats + JSON summary appended")
    args = ap.parse_args()

    load = os.getloadavg()[0]
    summary, stats = run(args.num_cpus, args.docs, args.reservation == "on")
    summary["loadavg_1min_at_start"] = round(load, 2)
    line = json.dumps(summary, sort_keys=True)
    print(line)
    if args.out:
        with open(args.out, "a") as f:
            f.write(line + "\n\n" + stats + "\n" + "=" * 78 + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
