"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a small round of every workload twice with one seed and requires the
outputs to be identical and to pass the checks; then corrupts one label
(of each fixture kind, keeping the row otherwise consistent), one
label_dist, one tile count, one zone pair, one kNN tile and one manifest,
and requires each corruption to fail the checks.  Exits 0 when
every expectation holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pyarrow as pa

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.run import WORK_ROOT, prepare_env, ray_temp_dir, start_ray, stop_ray  # noqa: E402
from polylabel_rs_ray.config import DEFAULT_CELL_RES, DEFAULT_TILE_RES  # noqa: E402
from polylabel_rs_ray.sources.docs import doc_offsets  # noqa: E402
from polylabel_rs_ray.sources.fixtures import FIXTURE_CYCLE, FIXTURES  # noqa: E402

SEED = 7
SMALL = {"mixed_flagship": 180, "small_poly_join": 120, "checkpoint_resume": 72}


def _set(table: pa.Table, col: str, row: int, fn) -> pa.Table:
    vals = table.column(col).to_numpy().copy()
    vals[row] = fn(vals[row])
    return table.set_column(table.schema.get_field_index(col), col,
                            pa.array(vals, type=table.schema.field(col).type))


def _row_of_fixture(rows: pa.Table, fixture: str) -> int:
    doc = rows.column("doc_num").to_numpy()
    return int(np.flatnonzero(doc % len(FIXTURE_CYCLE) == FIXTURE_CYCLE.index(fixture))[0])


def _relabel(rows: pa.Table, i: int, x: float, y: float) -> pa.Table:
    """Move row i's label to (x, y), keeping its label_dist, cell_id and
    tile_id consistent with the new point, so only the label checks can
    catch it."""
    doc = rows["doc_num"].to_numpy()[i:i + 1]
    ox, oy = doc_offsets(doc)
    rings = FIXTURES[FIXTURE_CYCLE[int(doc[0]) % len(FIXTURE_CYCLE)]].rings
    px, py = np.array([x]), np.array([y])
    new = {
        "label_x": x,
        "label_y": y,
        "label_dist": checks.clearance(px - ox, py - oy, rings)[0],
        "cell_id": checks.cell_of(px, py, DEFAULT_CELL_RES)[0],
        "tile_id": checks.cell_of(px, py, DEFAULT_TILE_RES)[0],
    }
    for col, val in new.items():
        rows = _set(rows, col, i, lambda _, v=val: v)
    return rows


def _labels_fail(rows: pa.Table) -> bool:
    v = checks.Verdict()
    checks.check_labels(v, rows)
    return v.failed > 0


def _canonical(out: dict) -> dict:
    keys = {"rows": "doc_num", "tiles": "tile_id", "zones": ["doc_num", "zone_id"],
            "knn": ["doc_num", "knn_rank"]}
    canon = {}
    for name, key in keys.items():
        if name in out:
            cols = [key] if isinstance(key, str) else key
            canon[name] = out[name].sort_by([(c, "ascending") for c in cols])
    if "parts" in out:
        canon["parts"] = [t.sort_by("doc_num") for t in out["parts"]]
    return canon


def main() -> int:
    prepare_env()
    from perfbench.workloads import WORKLOADS

    results: list[tuple[str, bool]] = []

    def expect(what: str, ok: bool) -> None:
        results.append((what, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {what}", file=sys.stderr)

    def failed(name: str, rnd, **outputs) -> int:
        bad = dataclasses.replace(rnd, outputs={**rnd.outputs, **outputs})
        return checks.check_round(name, bad, SEED, 0).failed

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="st-", dir=WORK_ROOT))
    ray_tmp = ray_temp_dir(work)
    try:
        start_ray(ray_tmp)
        for name, wl in WORKLOADS.items():
            params = {**wl.warm_params, "work_dir": str(work)}
            a = wl.run_round(SEED, 0, SMALL[name], None, **params)
            b = wl.run_round(SEED, 0, SMALL[name], None, **params)
            ca, cb = _canonical(a.outputs), _canonical(b.outputs)
            same = ca.keys() == cb.keys() and all(
                (x.equals(y) if isinstance(x, pa.Table) else all(p.equals(q) for p, q in zip(x, y)))
                for x, y in ((ca[k], cb[k]) for k in ca))
            expect(f"{name}: same seed gives identical outputs", same)
            v = checks.check_round(name, a, SEED, 0)
            expect(f"{name}: clean round passes ({v.notes[:2]})", v.failed == 0)

            if name == "checkpoint_resume":
                def tamper(out_dir, descs, crashed):
                    from polylabel_rs_ray.state.manifest import manifest_path

                    intact = next(i for i in range(len(descs)) if i not in crashed)
                    path = manifest_path(out_dir, intact)
                    with open(path) as f:
                        m = json.load(f)
                    m["input_fingerprint"] = "0" * 24
                    with open(path, "w") as f:
                        json.dump(m, f)

                c = wl.run_round(SEED, 0, SMALL[name], None, tamper=tamper, **params)
                expect(f"{name}: corrupted manifest fails",
                       checks.check_round(name, c, SEED, 0).failed > 0)
                parts = list(a.outputs["parts"])
                i = _row_of_fixture(parts[0], "l_shape")
                parts[0] = _relabel(parts[0], i, parts[0]["label_x"][i].as_py() + 1.0,
                                    parts[0]["label_y"][i].as_py())
                expect(f"{name}: corrupted label fails", failed(name, a, parts=parts) > 0)
                continue

            rows = a.outputs["rows"].sort_by("doc_num")
            i = _row_of_fixture(rows, "l_shape")
            expect(f"{name}: relabelling a row in place passes",
                   not _labels_fail(_relabel(rows, i, rows["label_x"][i].as_py(),
                                             rows["label_y"][i].as_py())))
            expect(f"{name}: exact label moved past its tolerance fails",
                   _labels_fail(_relabel(rows, i, rows["label_x"][i].as_py() + 1.0,
                                         rows["label_y"][i].as_py())))
            i = _row_of_fixture(rows, "degenerate_spike")
            expect(f"{name}: sentinel label off (0, 0) fails",
                   _labels_fail(_set(rows, "label_y", i, lambda y: 1e-300)))
            i = _row_of_fixture(rows, "hexagon_two_holes")
            ox, oy = doc_offsets(rows["doc_num"].to_numpy()[i:i + 1])
            expect(f"{name}: containment label moved near the outline fails",
                   _labels_fail(_relabel(rows, i, 3.5 + ox[0], 1.05 + oy[0])))
            i = _row_of_fixture(rows, "square_with_hole")
            expect(f"{name}: overstated label_dist fails",
                   _labels_fail(_set(rows, "label_dist", i, lambda d: d + 1.0)))
            tiles = _set(a.outputs["tiles"], "n_points", 0, lambda n: n + 1)
            expect(f"{name}: corrupted tile count fails", failed(name, a, tiles=tiles) > 0)
            if "zones" in a.outputs:
                expect(f"{name}: dropped zone pair fails",
                       failed(name, a, zones=a.outputs["zones"].slice(1)) > 0)
                knn = _set(a.outputs["knn"], "tile_id", 0, lambda t: t ^ 1)
                expect(f"{name}: corrupted knn tile fails", failed(name, a, knn=knn) > 0)
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    bad = [w for w, ok in results if not ok]
    print(json.dumps({"passed": len(results) - len(bad), "failed": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
