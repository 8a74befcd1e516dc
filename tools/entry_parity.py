"""Parity evidence: the entry()/flagship_pipeline code path at bench scale.

bench.py's headline and the driver's ``entry()``
(``pipelines.flagship.flagship_pipeline``) run the same chain,
``stages.label.labeled_rows`` then the tile render, and differ only in the
doc source: bench.py synthesizes one doc-id range (``sources.docs.range_docs``
over ``[(0, n)]``, its id blocks built on the driver),
entry() reads the documents table (``read_docs``).  This script times the
ENTRY path on a 120k-doc documents table (written to /tmp once) so the two
numbers are directly comparable, which measures what the source alone costs.

    python tools/entry_parity.py [--docs 120000] [--num-cpus 32]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=120_000)
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    tmp = f"/tmp/parity_docs_{args.docs}"
    os.makedirs(tmp, exist_ok=True)
    path = f"{tmp}/documents.parquet"
    if not os.path.exists(path):
        pq.write_table(
            pa.table({"doc_id": pa.array(np.arange(args.docs), type=pa.int64())}),
            path,
        )

    ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False)
    ray.data.DataContext.get_current().op_resource_reservation_enabled = False
    from polylabel_rs_ray.pipelines.flagship import flagship_pipeline

    # warmup
    ray.data.range(1000).map_batches(lambda b: b, batch_format="pyarrow").count()

    t0 = time.time()
    tiles = flagship_pipeline(tmp)  # the exact entry() call
    n = tiles.count()
    wall = time.time() - t0
    print(json.dumps({
        "path": "entry()/flagship_pipeline",
        "docs": args.docs,
        "wall_s": round(wall, 3),
        "docs_per_s": round(args.docs / wall, 1),
        "n_tiles": n,
        "num_cpus": args.num_cpus,
        "loadavg_1min": round(os.getloadavg()[0], 2),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
