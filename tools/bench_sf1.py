"""Round-4 scale-proof bench: run the flagship headline at 10x the usual
document count plus the heaviest registry queries at BOTH sf0.1 (shipped)
and sf1 (tools/gen_sf.py, 10x rows), and report the per-query time ratio.

    python tools/gen_sf.py 1.0 /tmp/testdata/sf1      # once
    python tools/bench_sf1.py                          # one JSON line

Sub-linear (< 10x) growth on the shuffle-bearing queries is the evidence
the exchanges scale; any query >10x its sf0.1 time needs a documented
reason (see BASELINE.md "Scale proof").  Engine-only timings (queries
stream to .count(); oracles are covered by the sf1 correctness sweep).
"""

from __future__ import annotations

import json
import os
import sys
import time

SF01 = "/root/testdata/sf0.1"
SF1 = os.environ.get("GRAFT_SF1_DIR", "/tmp/testdata/sf1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# the 20 slowest rows of the sf0.1 full sweep (r3 artifact) + the bench.py
# representative set's heavy tail
HEAVY = [
    "part_graph_assortativity", "customer_region_coverage",
    "bipartite_joint_degrees", "triangle_parts", "p90_order_exemplar",
    "degree_histogram", "jaccard_join_exact", "bpe_merges",
    "local_clustering_coeff", "allen_relation_histogram", "part_pair_lift",
    "median_of_medians_audit", "busday_ship_lag", "tile_pyramid",
    "basket_triple_support", "nearest_zone", "denormalized_sales",
    "bbox_overlap_join", "tile_gradient_histogram", "tile_facility_location",
    # representative engine stages (bench.py set)
    "minhash_near_dup", "exact_dedup", "pricing_summary", "events_by_type",
    "bm25_top_terms", "pagerank_parts",
]


def time_queries(qs, sf_dir: str, names: list[str]) -> dict:
    out = {}
    for name in names:
        t0 = time.time()
        res = qs[name](sf_dir)
        if hasattr(res, "count"):
            res.count()
        out[name] = round(time.time() - t0, 2)
    return out


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False)
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    ray.data.DataContext.get_current().op_resource_reservation_enabled = False
    qs = entrymod.queries()

    # flagship headline at 10x the bench.py document count
    from polylabel_rs_ray.sources.docs import range_docs
    from polylabel_rs_ray.stages.label import labeled_rows
    from polylabel_rs_ray.stages.tiles import render_tiles

    docs = int(os.environ.get("GRAFT_BENCH_DOCS", "1200000"))
    ray.data.range(1000).map_batches(lambda b: b, batch_format="pyarrow").count()
    t0 = time.time()
    ds = labeled_rows(range_docs([(0, docs)]))
    tiles = render_tiles(ds.select_columns(["tile_id", "label_x", "label_y"]))
    n_tiles = tiles.count()
    flagship_wall = time.time() - t0

    t_sf1 = time_queries(qs, SF1, HEAVY)
    t_sf01 = time_queries(qs, SF01, HEAVY)
    ratios = {k: round(t_sf1[k] / max(t_sf01[k], 0.05), 1) for k in HEAVY}
    print(json.dumps({
        "metric": "sf1 scale proof: flagship docs/s @10x + heavy-query time ratios sf1/sf0.1",
        "flagship_docs": docs,
        "flagship_wall_s": round(flagship_wall, 2),
        "flagship_docs_per_s": round(docs / flagship_wall, 1),
        "flagship_n_tiles": n_tiles,
        "num_cpus": NUM_CPUS,
        "sf1_dir": SF1,
        "queries_sf1_s": t_sf1,
        "queries_sf01_s": t_sf01,
        "ratio_sf1_over_sf01": ratios,
        "rows_ratio": 10.0,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
