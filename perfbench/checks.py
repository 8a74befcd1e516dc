"""Output checks, computed independently of the engine's own code paths.

Labels follow each fixture's kind (``sources/fixtures.py``), on rows sorted
by ``doc_num``:

* ``sentinel``: exactly (0, 0), never translated.
* ``exact``: the expected point plus the doc's offset, within the fixture
  tolerance.
* ``containment`` (concave_poly2, hexagon_two_holes, norway_main): the
  label's clearance, recomputed here by brute force over every edge, is at
  least ``d0 - tol``, with ``d0`` the clearance ``polylabel_one`` reaches on
  the untranslated fixture (or a brute-force grid search, if higher).
  These fixtures may have several poles of equal clearance, and translation
  can flip which one wins, so no fixed point is checked.

Every non-sentinel row must also report ``label_dist`` equal to the
recomputed clearance, and cell and tile ids equal to a bit-by-bit Morton
code of the label point.  Joins are checked against brute force over all
40 zones and, on a seeded sample, all 1024 tile centres; tiles against the
rows they were built from; a resumed checkpoint against its first pass.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from polylabel_rs_ray.config import DEFAULT_CELL_RES, DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
from polylabel_rs_ray.geom.kernel import polylabel_one
from polylabel_rs_ray.sources.docs import doc_offsets, spans_for_doc_ids
from polylabel_rs_ray.sources.fixtures import FIXTURE_CYCLE, FIXTURES
from polylabel_rs_ray.stages.join import zone_table

KNN_K = 3
KNN_SAMPLE = 256
DIST_RTOL = 1e-9  # label_dist vs recomputed clearance: same formula, other order
RES_SHIFT = 58


class Verdict:
    """Failed docs of one round, plus failures no single doc owns."""

    def __init__(self):
        self.failed_docs: set[int] = set()
        self.other = 0
        self.notes: list[str] = []

    def fail_docs(self, docs, what: str) -> None:
        docs = [int(d) for d in np.asarray(docs).ravel()]
        if docs:
            self.failed_docs.update(docs)
            self.notes.append(f"{what}: {len(docs)} docs, e.g. {docs[:3]}")

    def fail(self, n: int, what: str) -> None:
        self.other += max(int(n), 1)
        self.notes.append(what)

    @property
    def failed(self) -> int:
        return len(self.failed_docs) + self.other


def morton(ix: np.ndarray, iy: np.ndarray, res: int) -> np.ndarray:
    code = np.zeros(len(ix), dtype=np.int64)
    for b in range(res):
        code |= ((ix >> b) & 1) << (2 * b)
        code |= ((iy >> b) & 1) << (2 * b + 1)
    return code | (np.int64(res) << RES_SHIFT)


def grid(v: np.ndarray, res: int) -> np.ndarray:
    n = 1 << res
    return np.clip(np.floor((v - WORLD_MIN) / (WORLD_SIZE / n)), 0, n - 1).astype(np.int64)


def cell_of(x: np.ndarray, y: np.ndarray, res: int) -> np.ndarray:
    return morton(grid(x, res), grid(y, res), res)


@functools.lru_cache(maxsize=None)
def tile_grid(res: int = DEFAULT_TILE_RES):
    """All tiles at ``res``: (ids, lower-left x, lower-left y, edge)."""
    n = 1 << res
    ix, iy = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    size = WORLD_SIZE / n
    return morton(ix, iy, res), WORLD_MIN + ix * size, WORLD_MIN + iy * size, size


def _edges(rings) -> tuple[np.ndarray, ...]:
    a, b = [], []
    for ring in rings:
        r = np.asarray(ring, dtype=np.float64)
        if not np.array_equal(r[0], r[-1]):
            r = np.vstack([r, r[:1]])
        a.append(r[:-1])
        b.append(r[1:])
    a, b = np.concatenate(a), np.concatenate(b)
    return a[:, 0], a[:, 1], b[:, 0], b[:, 1]


def clearance(px: np.ndarray, py: np.ndarray, rings, chunk_elems: int = 1 << 21) -> np.ndarray:
    """Signed distance from each point to the polygon outline: positive
    inside (even-odd rule over all rings), negative outside."""
    ax, ay, bx, by = _edges(rings)
    dx, dy = bx - ax, by - ay
    l2 = dx * dx + dy * dy
    out = np.empty(len(px))
    step = max(1, chunk_elems // len(ax))
    for s in range(0, len(px), step):
        x = px[s:s + step, None]
        y = py[s:s + step, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(l2 > 0, ((x - ax) * dx + (y - ay) * dy) / l2, 0.0)
            t = np.clip(t, 0.0, 1.0)
            d2 = (x - ax - t * dx) ** 2 + (y - ay - t * dy) ** 2
            cross = ((ay > y) != (by > y)) & (x < dx * (y - ay) / dy + ax)
        inside = np.count_nonzero(cross, axis=1) % 2 == 1
        d = np.sqrt(d2.min(axis=1))
        out[s:s + step] = np.where(inside, d, -d)
    return out


def grid_clearance(rings, n: int = 16, keep: int = 3, rounds: int = 3) -> float:
    """Largest clearance found by brute force: an n x n grid over the bbox,
    then finer grids around the ``keep`` best points.  A lower bound on the
    optimum that does not use the engine."""
    pts = np.concatenate(rings)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    step = (hi - lo) / n
    off = np.arange(n) + 0.5
    gx, gy = (a.ravel() for a in np.meshgrid(lo[0] + off * step[0], lo[1] + off * step[1]))
    best = -np.inf
    for _ in range(rounds):
        c = clearance(gx, gy, rings)
        best = max(best, float(c.max()))
        top = np.argsort(c)[-keep:]
        step = step * 2 / n
        ox, oy = (a.ravel() for a in np.meshgrid((off - n / 2) * step[0], (off - n / 2) * step[1]))
        gx, gy = (gx[top][:, None] + ox).ravel(), (gy[top][:, None] + oy).ravel()
    return best


@functools.lru_cache(maxsize=None)
def best_clearance(fixture: str) -> float:
    """``d0``: the better of ``polylabel_one``'s clearance on the
    untranslated fixture and the brute-force grid's.  Both are reached by
    some point, so neither exceeds the optimum; the grid keeps the floor up
    if the kernel itself regresses."""
    f = FIXTURES[fixture]
    return max(polylabel_one(f.rings, f.tolerance)[2], grid_clearance(f.rings))


def check_coverage(v: Verdict, rows: pa.Table, ids: np.ndarray) -> None:
    got = rows.column("doc_num").to_numpy()
    want = np.sort(np.asarray(ids))
    if len(got) != len(want) or not np.array_equal(got, want):
        uniq, counts = np.unique(got, return_counts=True)
        v.fail_docs(np.setxor1d(want, uniq), "rows missing or unexpected")
        v.fail_docs(uniq[counts > 1], "rows duplicated")


def check_labels(v: Verdict, rows: pa.Table) -> None:
    """Per-fixture label checks plus cell/tile ids, on ``rows`` sorted by
    doc_num."""
    doc = rows.column("doc_num").to_numpy()
    x = rows.column("label_x").to_numpy()
    y = rows.column("label_y").to_numpy()
    dist = rows.column("label_dist").to_numpy()
    err = rows.column("label_error").is_valid().to_numpy(zero_copy_only=False)
    v.fail_docs(doc[err], "label_error set")
    ox, oy = doc_offsets(doc)
    fix = doc % len(FIXTURE_CYCLE)
    for k, name in enumerate(FIXTURE_CYCLE):
        m = fix == k
        if not m.any():
            continue
        f = FIXTURES[name]
        fx, fy, fd, fdoc = x[m], y[m], dist[m], doc[m]
        if f.kind == "sentinel":
            v.fail_docs(fdoc[(fx != 0.0) | (fy != 0.0)], f"{name}: not exactly (0, 0)")
            continue
        if f.kind == "exact":
            ex, ey = f.expected
            ok = (np.abs(fx - (ex + ox[m])) <= f.tolerance) & (np.abs(fy - (ey + oy[m])) <= f.tolerance)
            v.fail_docs(fdoc[~ok], f"{name}: label off the expected point")
        c = clearance(fx - ox[m], fy - oy[m], f.rings)
        if f.kind == "containment":
            low = best_clearance(name) - f.tolerance
            v.fail_docs(fdoc[~(c >= low)], f"{name}: clearance below {low:.6g}")
        bad = ~(np.abs(fd - c) <= DIST_RTOL * np.maximum(1.0, np.abs(c)))
        v.fail_docs(fdoc[bad], f"{name}: label_dist differs from the label's clearance")
    for col, res in (("cell_id", DEFAULT_CELL_RES), ("tile_id", DEFAULT_TILE_RES)):
        if col in rows.column_names:
            bad = rows.column(col).to_numpy() != cell_of(x, y, res)
            v.fail_docs(doc[bad], f"{col} differs from the label point's cell")


def check_tiles(v: Verdict, rows: pa.Table, tile_tbl: pa.Table) -> None:
    """Tiles against the rows they were rendered from."""
    n_rows = rows.num_rows
    if tile_tbl.num_rows == 0:
        v.fail(n_rows, "no tiles rendered")
        return
    tid = tile_tbl.column("tile_id").to_numpy()
    n_pts = tile_tbl.column("n_points").to_numpy()
    if int(n_pts.sum()) != n_rows:
        v.fail(abs(int(n_pts.sum()) - n_rows), f"tile n_points sum {int(n_pts.sum())} != {n_rows} rows")
    row_tid = rows.column("tile_id").to_numpy()
    row_doc = rows.column("doc_num").to_numpy()
    if len(np.unique(tid)) != len(tid) or not np.array_equal(np.sort(tid), np.unique(row_tid)):
        v.fail(1, "tile ids differ from the rows' distinct tile ids")
    ids, x0s, y0s, size = tile_grid()
    corner = dict(zip(ids.tolist(), zip(x0s.tolist(), y0s.tolist())))
    raster_sum = tile_tbl.column("raster_sum").to_numpy()
    order = np.argsort(row_tid, kind="stable")
    starts = np.searchsorted(row_tid[order], tid, side="left")
    ends = np.searchsorted(row_tid[order], tid, side="right")
    rx = rows.column("label_x").to_numpy()
    ry = rows.column("label_y").to_numpy()
    px_col = tile_tbl.column("points_x").to_pylist()
    py_col = tile_tbl.column("points_y").to_pylist()
    for i, t in enumerate(tid.tolist()):
        members = order[starts[i]:ends[i]]
        px, py = np.asarray(px_col[i]), np.asarray(py_col[i])
        ok = raster_sum[i] == n_pts[i] == len(members) == len(px) == len(py)
        if ok and t in corner:
            x0, y0 = corner[t]
            ok = bool(np.all((px >= x0) & (px < x0 + size) & (py >= y0) & (py < y0 + size)))
            ok = ok and np.array_equal(px, np.sort(rx[members])) and np.array_equal(py, np.sort(ry[members]))
        else:
            ok = False
        if not ok:
            if len(members):
                v.fail_docs(row_doc[members], f"tile {t}: counts, bounds or points wrong")
            else:
                v.fail(n_pts[i], f"tile {t}: no rows carry this tile id")


def check_zone_join(v: Verdict, rows: pa.Table, zones: pa.Table) -> None:
    """ZoneJoin output against brute force over every zone rectangle."""
    z = zone_table()
    doc = rows.column("doc_num").to_numpy()
    x = rows.column("label_x").to_numpy()[:, None]
    y = rows.column("label_y").to_numpy()[:, None]
    inside = (z["x0"] < x) & (x < z["x1"]) & (z["y0"] < y) & (y < z["y1"])
    r, c = np.nonzero(inside)
    want = set(zip(doc[r].tolist(), z["zone_id"][c].tolist()))
    got_list = (list(zip(zones.column("doc_num").to_pylist(), zones.column("zone_id").to_pylist()))
                if zones.num_rows else [])
    got = set(got_list)
    if len(got) != len(got_list):
        v.fail(len(got_list) - len(got), "zone join emitted duplicate pairs")
    v.fail_docs(sorted({d for d, _ in want ^ got}), "zone join pairs differ from brute force")


def check_knn(v: Verdict, rows: pa.Table, knn: pa.Table, rng: np.random.Generator) -> None:
    """Every doc has KNN_K ranked tiles; a seeded sample of docs is checked
    against brute force over every tile centre, ties broken by tile id."""
    doc = rows.column("doc_num").to_numpy()
    kdoc = knn.column("doc_num").to_numpy() if knn.num_rows else np.empty(0, np.int64)
    uniq, counts = np.unique(kdoc, return_counts=True)
    have = dict(zip(uniq.tolist(), counts.tolist()))
    v.fail_docs([d for d in doc.tolist() if have.get(d) != KNN_K], f"knn rows per doc != {KNN_K}")
    if not knn.num_rows:
        return
    knn = knn.sort_by([("doc_num", "ascending"), ("knn_rank", "ascending")])
    kdoc = knn.column("doc_num").to_numpy()
    ktid = knn.column("tile_id").to_numpy()
    kd2 = knn.column("dist2").to_numpy()
    ids, x0s, y0s, size = tile_grid()
    cx, cy = x0s + size / 2, y0s + size / 2
    pick = rng.choice(len(doc), min(KNN_SAMPLE, len(doc)), replace=False)
    x = rows.column("label_x").to_numpy()
    y = rows.column("label_y").to_numpy()
    bad = []
    for i in pick:
        d2 = (x[i] - cx) ** 2 + (y[i] - cy) ** 2
        top = np.lexsort((ids, d2))[:KNN_K]
        lo, hi = np.searchsorted(kdoc, doc[i]), np.searchsorted(kdoc, doc[i], side="right")
        if hi - lo != KNN_K or not np.array_equal(ktid[lo:hi], ids[top]) or not np.allclose(
                kd2[lo:hi], d2[top], rtol=DIST_RTOL, atol=0.0):
            bad.append(doc[i])
    v.fail_docs(bad, "knn tiles differ from brute force")


def check_spans(v: Verdict, rows: pa.Table) -> None:
    """Span sequences (kind, text, media_ref, offset order) pass through
    unchanged; ``rows`` sorted by doc_num."""
    doc = rows.column("doc_num").to_numpy()
    want = spans_for_doc_ids(doc)
    got = rows.column("spans").combine_chunks()
    if got.equals(want):
        return
    got_l, want_l = got.to_pylist(), want.to_pylist()
    v.fail_docs([d for d, g, w in zip(doc.tolist(), got_l, want_l) if g != w],
                "spans differ from the synthesized sequence")


def check_round(workload: str, rnd, seed: int, round_idx: int) -> Verdict:
    v = Verdict()
    out = rnd.outputs
    if workload == "checkpoint_resume":
        check_checkpoint(v, out)
        return v
    rows = out["rows"].sort_by("doc_num") if out["rows"].num_rows else out["rows"]
    check_coverage(v, rows, out["ids"])
    if rows.num_rows:
        check_labels(v, rows)
        check_tiles(v, rows, out["tiles"])
        if "zones" in out:
            check_zone_join(v, rows, out["zones"])
            check_knn(v, rows, out["knn"], np.random.default_rng([seed, round_idx, 1]))
    return v


def check_checkpoint(v: Verdict, out: dict) -> None:
    descs, crashed, parts = out["descs"], out["crashed"], out["parts"]
    skipped = out["summary"].get("resumed_skipped")
    if skipped != len(descs) - len(crashed):
        v.fail(abs((skipped or 0) - (len(descs) - len(crashed))),
               f"resumed_skipped {skipped} != {len(descs) - len(crashed)} intact partitions")
    for i, first in zip(crashed, out["first"]):
        again = parts[i].sort_by("doc_num")
        first = first.sort_by("doc_num")
        if not again.equals(first):
            docs = set(first.column("doc_num").to_pylist()) | set(again.column("doc_num").to_pylist())
            if again.num_rows == first.num_rows:
                a, b = again.to_pylist(), first.to_pylist()
                docs = {r["doc_num"] for r, s in zip(a, b) if r != s}
            v.fail_docs(sorted(docs), f"partition {i} re-run differs from its first pass")
    for desc, table in zip(descs, parts):
        rows = table.sort_by("doc_num")
        check_coverage(v, rows, np.arange(desc["lo"], desc["hi"]))
        check_labels(v, rows)
        check_spans(v, rows)
