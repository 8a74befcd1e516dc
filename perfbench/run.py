"""Engine benchmark: label, join/tile and checkpoint workloads.

    python3 perfbench/run.py --workload mixed_flagship --seed 1 --seconds 10 --trace 0

Run from the repository root.  One driver process runs three local Ray
sessions with one CPU each, one after the other, so tasks run one at a time
however many cores the host lends.  Each session is set up (a fresh Ray
plus a small warm-up round of the workload, which imports the engine in the
new workers) and then runs rounds of the workload until the run's round
time reaches its share of ``--seconds`` (a third, two thirds, all of it).
Spreading the measured rounds over three sessions keeps one session's
worker placement out of the medians.  Every round's outputs are checked
(``perfbench/checks.py``).  The last line of stdout is one JSON object:
``correct``, ``attempted`` / ``failed`` (docs), and ``metrics``, with the
units ``BENCHMARK.json`` declares.

End-to-end metrics (``--trace 0``), medians over rounds.  The three times
are given at reference host speed: each is scaled by ``REF_S`` over the
median time of a fixed reference job run before every round
(``perfbench/reference.py``), because the host's own speed drifts by more
than the bounds within minutes.

* ``docs_per_s``: docs fully processed per second of round time (for
  checkpoint_resume: of its first pass).
* ``resume_s``: time to finish the round's job after a crash midway.  For
  checkpoint_resume that is the resumed run after half the manifests are
  deleted; the other workloads keep no checkpoint, so it is the time to run
  the whole round again.
* ``setup_s``: the median of the three sessions' set-up times.
* ``worker_peak_rss_mb``: the largest peak resident set (``VmHWM``) of a
  session's Ray worker processes, read before shutdown; median of the
  sessions.

With ``--trace 1`` rounds alternate untraced and traced.  The traced ones
record spans (``perfbench/trace.py``) and give the per-layer metrics, in
unscaled wall time; ``trace.overhead_s`` is the traced rounds' median wall
minus the untraced.  ``host.ref_s`` (the reference job's median) and
``raw.docs_per_s`` (the untraced rounds' unscaled median) show the scaling.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"  # scratch of one run, removed at exit
SETUPS = 3
NUM_CPUS = 1
WARM_ROUND = 1_000_000  # round index of the first warm-up round
# a Ray session's socket paths are its temp dir plus up to 64 characters,
# and AF_UNIX paths stop at 107
MAX_RAY_TMP = 43


def prepare_env() -> None:
    """Make the engine and this package importable here and in Ray
    workers, which import them by name; keep Ray from reporting usage.
    Ray starts its workers at nice 15, below its own daemons (dashboard,
    agents, log monitor), so which of them share the worker's core would
    set its speed; the benchmark runs the workers at nice 0."""
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_worker_niceness"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))


def ray_temp_dir(work: Path) -> str:
    """``work/ray`` when Ray's socket paths under it fit, else a short
    directory in the system temp dir (deleted with the run)."""
    path = str(work / "ray")
    return path if len(path) <= MAX_RAY_TMP else tempfile.mkdtemp(prefix="pb")


def start_ray(temp_dir: str) -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             _temp_dir=temp_dir, object_store_memory=300 * 1024**2,
             log_to_driver=False, logging_level=logging.WARNING)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray(grace_s: float = 15.0) -> None:
    """Shut Ray down and wait until every process it started has ended;
    kill any still running after ``grace_s``."""
    import ray

    pids = _descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + grace_s
    while pids:
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # reap the driver's own children
        pids = [p for p in pids if _running(p)]
        if pids and time.monotonic() > deadline:
            for pid in pids:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except (OSError, IndexError):
        return False


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def worker_peak_rss_mb() -> float:
    """Largest VmHWM among this driver's Ray worker processes."""
    peak_kb = 0
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if not f.read().startswith(b"ray::"):
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024


def layer_metrics(rnd, spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced round.

    With one CPU the worker spans never overlap, so the round's wall time
    splits into the self times of the worker layers (geom.kernel,
    stages.label.decode, stages.label, sources.docs.synth,
    stages.cells.encode, stages.join.zone_join, stages.join.knn,
    stages.tiles.render), the driver's state.manifest.write, and
    ``ray_data.overhead_s``, the rest: scheduling, exchange and driver
    time.  The other time metrics are not in that sum.  ``run.partition_s``
    is the driver's span around each partition's pipeline and includes the
    worker tasks it waits for; ``run.partition_overhead_s`` (its driver-only
    part) and ``ray_data.exchange_s`` (the tile phase's wall time minus the
    renders) are parts of ``ray_data.overhead_s``."""
    from perfbench.trace import self_times

    own = self_times(spans)
    worker_busy = sum(s["end"] - s["start"] for s in spans
                      if s["pid"] != os.getpid() and s["parent_id"] is None)
    out = rnd.outputs
    tiles = out.get("tiles")
    return {
        "geom.kernel.self_s": own.get("geom.kernel", 0.0),
        "geom.kernel.vertices": sum(s["count"] for s in spans if s["name"] == "geom.kernel"),
        "stages.label.decode_s": own.get("stages.label.decode", 0.0),
        "stages.label.self_s": own.get("stages.label", 0.0),
        "sources.docs.synth_s": own.get("sources.docs.synth", 0.0),
        "stages.cells.encode_s": own.get("stages.cells.encode", 0.0),
        "stages.join.zone_join_s": own.get("stages.join.zone_join", 0.0),
        "stages.join.zone_matches": out["zones"].num_rows if "zones" in out else 0,
        "stages.join.knn_s": own.get("stages.join.knn", 0.0),
        "stages.tiles.render_s": own.get("stages.tiles.render", 0.0),
        "stages.tiles.groups": tiles.num_rows if tiles is not None else 0,
        "stages.tiles.max_group_rows": (
            max(tiles.column("n_points").to_pylist(), default=0) if tiles is not None else 0),
        "ray_data.exchange_s": (rnd.phases["tiles"] - own.get("stages.tiles.render", 0.0)
                                if "tiles" in rnd.phases else 0.0),
        "ray_data.overhead_s": rnd.wall_s - worker_busy - own.get("state.manifest.write", 0.0),
        "run.partition_s": own.get("run.partition", 0.0),
        "run.partition_overhead_s": (own["run.partition"] - worker_busy
                                     if "run.partition" in own else 0.0),
        "state.manifest.write_s": own.get("state.manifest.write", 0.0),
        "state.manifest.bytes_written": out.get("bytes_written", 0),
        "state.manifest.partitions_skipped": (
            out["summary"].get("resumed_skipped", 0) if "summary" in out else 0),
        "trace.round_wall_s": rnd.wall_s,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


class Tally:
    """What the measured rounds of one run add up to."""

    def __init__(self):
        self.rounds = self.attempted = self.failed = 0
        self.measured = 0.0  # round seconds so far
        self.notes: list[str] = []
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.docs_per_s: list[float] = []
        self.resume_s: list[float] = []
        self.refs: list[float] = []
        self.layers: list[dict] = []
        self.kernel_ms: list[float] = []


def measure(t: Tally, wl, name: str, args, work: Path, until: float) -> None:
    """Run rounds in the current Ray session, at least one, until the run's
    round time reaches ``until`` seconds.  With tracing every second round
    is traced, so the three sessions together run both kinds."""
    from perfbench import checks, trace
    from perfbench.reference import reference_s

    start = t.rounds
    while t.measured < until or t.rounds == start:
        idx = t.rounds
        traced = bool(args.trace) and idx % 2 == 1
        tdir = str(work / f"trace-{idx}") if traced else None
        if traced:
            os.makedirs(tdir)
        t.refs.append(reference_s())
        with trace.tracing(tdir) if traced else contextlib.nullcontext():
            rnd = wl.run_round(args.seed, idx, wl.docs, tdir, work_dir=str(work), **wl.params)
        t.measured += rnd.wall_s
        t.walls[traced].append(rnd.wall_s)
        if not traced:
            t.docs_per_s.append(rnd.docs / rnd.docs_s)
            t.resume_s.append(rnd.resume_s)
        v = checks.check_round(name, rnd, args.seed, idx)
        t.attempted += rnd.docs
        t.failed += v.failed
        t.notes += [f"round {idx}: {n}" for n in v.notes]
        if traced:
            spans = trace.read_spans(tdir)
            t.layers.append(layer_metrics(rnd, spans))
            t.kernel_ms += [(s["end"] - s["start"]) * 1e3 for s in spans
                            if s["name"] == "geom.kernel"]
        print(f"round {idx}{' traced' if traced else ''}: {rnd.docs} docs "
              + " ".join(f"{k}={s:.3f}s" for k, s in rnd.phases.items())
              + f" failed={v.failed}", file=sys.stderr)
        t.rounds += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare_env()
    import polylabel_rs_ray.stages.label  # noqa: F401  stop here when the engine is missing

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True)
    ray_tmp = ray_temp_dir(work)
    t, setups, rss = Tally(), [], []
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            start_ray(ray_tmp)
            wl.run_round(args.seed, WARM_ROUND + i, wl.warm_docs, None,
                         work_dir=str(work), **wl.warm_params)
            setups.append(time.perf_counter() - t0)
            print(f"setup {i}: {setups[-1]:.3f}s", file=sys.stderr)
            measure(t, wl, args.workload, args, work, args.seconds * (i + 1) / SETUPS)
            rss.append(worker_peak_rss_mb())
            stop_ray()
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    from perfbench.reference import REF_S

    for n in t.notes[:20]:
        print("check failed:", n, file=sys.stderr)
    # > 1 when the host runs slower than the reference speed
    slow = statistics.median(t.refs) / REF_S
    print(f"reference job: median {statistics.median(t.refs):.4f}s over {len(t.refs)}",
          file=sys.stderr)
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in t.layers) for k in t.layers[0]}
        metrics["geom.kernel.batch_p50_ms"] = percentile(t.kernel_ms, 0.50)
        metrics["geom.kernel.batch_p99_ms"] = percentile(t.kernel_ms, 0.99)
        metrics["trace.overhead_s"] = (statistics.median(t.walls[True])
                                       - statistics.median(t.walls[False]))
        metrics["host.ref_s"] = statistics.median(t.refs)
        metrics["raw.docs_per_s"] = statistics.median(t.docs_per_s)
    else:
        metrics = {
            "docs_per_s": statistics.median(t.docs_per_s) * slow,
            "resume_s": statistics.median(t.resume_s) / slow,
            "setup_s": statistics.median(setups) / slow,
            "worker_peak_rss_mb": statistics.median(rss),
        }
    print(json.dumps({
        "correct": t.failed == 0 and t.attempted > 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
