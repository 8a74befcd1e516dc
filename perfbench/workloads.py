"""Seeded inputs and one timed round of each workload.

A round is one job of fixed size, run start to finish through the engine's
public stage functions, with the driver timing each phase.  The seed picks
each round's doc-id window and the order the ids arrive in; the engine
receives only the ids and synthesizes the documents itself
(``sources.docs.attach_interleaved``).

Stage callables are looked up on their modules when a round is built, so
the span-recording wrappers of ``trace.tracing()`` take effect; with
``trace_dir=None`` nothing is wrapped.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from polylabel_rs_ray import run as engine_run
from polylabel_rs_ray.config import DEFAULT_CELL_RES, DEFAULT_TILE_RES
from polylabel_rs_ray.sources import docs
from polylabel_rs_ray.stages import cells, join, label, tiles
from polylabel_rs_ray.state import manifest

from perfbench.trace import spanned

ROW_COLS = ["doc_num", "label_x", "label_y", "label_dist", "label_error",
            "cell_id", "tile_id"]
TILE_COLS = ["tile_id", "label_x", "label_y"]
N_FIXTURES = docs.N_FIXTURES
# doc_id % 9 of the fixtures whose label costs little (everything except
# shapely_poly1, concave_poly2 and norway_main)
CHEAP_FIXTURES = (0, 3, 4, 5, 6, 7)
BLOCK_ROWS = docs.LABEL_BLOCK_ROWS
MAX_BASE = 10**9


@dataclass
class Round:
    docs: int
    phases: dict[str, float]  # phase -> driver wall seconds, in run order
    docs_s: float  # wall seconds until every doc of the round was processed
    resume_s: float  # wall seconds to finish the job after a crash midway
    outputs: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())


def window_start(rng: np.random.Generator) -> int:
    """A seeded first doc id.  It is a multiple of 9, so every window of a
    given length holds the same fixture mix."""
    return int(rng.integers(0, MAX_BASE)) // N_FIXTURES * N_FIXTURES


def doc_ids(seed: int, round_idx: int, n: int, cheap_only: bool = False) -> np.ndarray:
    """``n`` doc ids from a seeded window, in seeded order."""
    rng = np.random.default_rng([seed, round_idx])
    base = window_start(rng)
    span = -(-n // len(CHEAP_FIXTURES)) * N_FIXTURES if cheap_only else n
    ids = np.arange(base, base + span, dtype=np.int64)
    if cheap_only:
        ids = ids[np.isin(ids % N_FIXTURES, CHEAP_FIXTURES)][:n]
    return rng.permutation(ids)


def collect(ds) -> pa.Table:
    """Run ``ds`` once and fetch its blocks.  ``to_arrow_refs`` on a lazy
    dataset runs the plan a second time to read its schema, so the dataset
    is materialized first."""
    import ray

    tables = [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def _encode_fn():
    return functools.partial(cells.append_cell_columns,
                             cell_res=DEFAULT_CELL_RES, tile_res=DEFAULT_TILE_RES)


def labeled_rows(ids: np.ndarray):
    """synth -> label -> cell encode, narrowed to ROW_COLS and materialized
    so the tile shuffle and the joins read it without relabelling."""
    import ray

    blocks = [pa.table({"doc_id": ids[i:i + BLOCK_ROWS]})
              for i in range(0, len(ids), BLOCK_ROWS)]
    ds = ray.data.from_arrow(blocks)
    ds = ds.map_batches(docs.attach_interleaved, batch_format="pyarrow",
                        zero_copy_batch=True)
    ds = label.label_points(ds)
    ds = ds.map_batches(_encode_fn(), batch_format="pyarrow", zero_copy_batch=True)
    return ds.select_columns(ROW_COLS).materialize()


class Phases:
    def __init__(self):
        self.phases: dict[str, float] = {}
        self.t = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = now - self.t
        self.t = now


def mixed_flagship(seed: int, round_idx: int, n: int, trace_dir=None, **_) -> Round:
    ids = doc_ids(seed, round_idx, n)
    p = Phases()
    rows = labeled_rows(ids)
    p.mark("label")
    tile_tbl = collect(tiles.render_tiles(rows.select_columns(TILE_COLS)))
    p.mark("tiles")
    row_tbl = collect(rows)
    p.mark("collect")
    # nothing is checkpointed, so a crash midway means running it again
    wall = sum(p.phases.values())
    return Round(n, p.phases, wall, wall, {"ids": ids, "rows": row_tbl, "tiles": tile_tbl})


def small_poly_join(seed: int, round_idx: int, n: int, trace_dir=None, **_) -> Round:
    ids = doc_ids(seed, round_idx, n, cheap_only=True)
    p = Phases()
    rows = labeled_rows(ids)
    p.mark("label")
    # ZoneJoin and KnnTiles run as callables inside stateless tasks: an
    # actor pool of at least two actors cannot be scheduled on one CPU
    zone_fn = spanned("stages.join.zone_join", join.ZoneJoin(), trace_dir)
    zones = collect(rows.map_batches(zone_fn, batch_format="pyarrow", zero_copy_batch=True))
    p.mark("zone_join")
    knn_fn = spanned("stages.join.knn", join.KnnTiles(), trace_dir)
    knn = collect(rows.map_batches(knn_fn, batch_format="pyarrow", zero_copy_batch=True))
    p.mark("knn")
    tile_tbl = collect(tiles.render_tiles(rows.select_columns(TILE_COLS)))
    p.mark("tiles")
    row_tbl = collect(rows)
    p.mark("collect")
    wall = sum(p.phases.values())
    return Round(n, p.phases, wall, wall,
                 {"ids": ids, "rows": row_tbl, "tiles": tile_tbl,
                  "zones": zones, "knn": knn})


def _tree_bytes(paths: list[str]) -> int:
    total = 0
    for path in paths:
        for dirpath, _, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def checkpoint_resume(seed: int, round_idx: int, n: int, trace_dir=None, *,
                      parts: int, work_dir: str, tamper=None, **_) -> Round:
    """First pass over ``parts`` partitions, a simulated crash that deletes
    the manifests of a seeded half of them, then the resumed run.

    ``tamper(out_dir, descs, crashed)`` runs between crash and resume; the
    checker's self-test uses it to corrupt a manifest."""
    rng = np.random.default_rng([seed, round_idx])
    base = window_start(rng)
    descs = engine_run.build_partition_descs(n, parts, DEFAULT_CELL_RES, DEFAULT_TILE_RES)
    for d in descs:
        d["lo"] += base
        d["hi"] += base
    crashed = sorted(int(i) for i in rng.choice(parts, parts // 2, replace=False))
    out = tempfile.mkdtemp(prefix="ckpt-", dir=work_dir)
    run_one = spanned("run.partition", engine_run.run_label_partition, trace_dir)
    try:
        t0 = time.perf_counter()
        manifest.run_partitioned(out, descs, run_one)
        first_s = time.perf_counter() - t0
        written = _tree_bytes([out])
        pdirs = [manifest.partition_dir(out, i) for i in crashed]
        first = [pq.read_table(os.path.join(d, "data.parquet")) for d in pdirs]
        for i in crashed:
            os.remove(manifest.manifest_path(out, i))
        if tamper is not None:
            tamper(out, descs, crashed)
        t0 = time.perf_counter()
        summary = manifest.run_partitioned(out, descs, run_one)
        resume_s = time.perf_counter() - t0
        written += _tree_bytes(pdirs) + os.path.getsize(
            os.path.join(out, manifest.SUMMARY_NAME))
        parts_out = [pq.read_table(os.path.join(manifest.partition_dir(out, i),
                                                "data.parquet"))
                     for i in range(parts)]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Round(
        n, {"first_pass": first_s, "resume": resume_s}, first_s, resume_s,
        {"descs": descs, "crashed": crashed, "summary": summary, "first": first,
         "parts": parts_out, "bytes_written": written},
    )


@dataclass(frozen=True)
class Workload:
    run_round: object
    docs: int  # per measured round
    warm_docs: int  # per warm-up round
    params: dict = field(default_factory=dict)
    warm_params: dict = field(default_factory=dict)


WORKLOADS = {
    "mixed_flagship": Workload(mixed_flagship, docs=2700, warm_docs=90),
    "small_poly_join": Workload(small_poly_join, docs=4800, warm_docs=60),
    "checkpoint_resume": Workload(checkpoint_resume, docs=792, warm_docs=36,
                                  params={"parts": 4}, warm_params={"parts": 2}),
}
