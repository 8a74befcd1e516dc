"""Round-3 extension operators, batch 73: minimum enclosing circle and
cumulative-distinct growth curves.

``bounding_circle_stats`` — the smallest enclosing circle of each
fixture's exterior ring (the canonical bounding volume for spatial
index nodes): center + squared radius per fixture.  The engine runs
deterministic iterative Welzl (fixed insertion order, no shuffle);
the oracle constants come from an INDEPENDENT brute-force twin that
enumerates every pair-diameter and triple-circumcircle candidate and
keeps the smallest that contains all points.  Both share only the
two circle FORMULAS (midpoint-diameter and circumcenter measured from
the first support point) and the containment epsilon, so the unique
optimum reproduces bit-for-bit.

``cumulative_unique_users`` — the audience growth curve: per day, how
many users appear for the FIRST time and the running distinct total.
Running-distinct is not algebraic, but first-seen-day per user IS a
min-aggregate (one high-cardinality exchange); the day histogram is
bounded and the cumulative sum folds driver-side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
IN_EPS = 1e-9  # absolute containment slack shared by engine and twin


# --- shared circle formulas (the ONLY code twin and engine both use) ------

def _circle_from_two(p, q):
    cx = (p[0] + q[0]) * 0.5
    cy = (p[1] + q[1]) * 0.5
    dx = cx - p[0]
    dy = cy - p[1]
    return cx, cy, dx * dx + dy * dy


def _circumcircle(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1])
               + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return None
    aa = a[0] * a[0] + a[1] * a[1]
    bb = b[0] * b[0] + b[1] * b[1]
    cc = c[0] * c[0] + c[1] * c[1]
    ux = (aa * (b[1] - c[1]) + bb * (c[1] - a[1]) + cc * (a[1] - b[1])) / d
    uy = (aa * (c[0] - b[0]) + bb * (a[0] - c[0]) + cc * (b[0] - a[0])) / d
    dx = ux - a[0]
    dy = uy - a[1]
    return ux, uy, dx * dx + dy * dy


def _contains(circle, p) -> bool:
    cx, cy, rsq = circle
    dx = p[0] - cx
    dy = p[1] - cy
    return dx * dx + dy * dy <= rsq + IN_EPS


def _welzl(points: np.ndarray):
    """Deterministic iterative Welzl (fixed order, no randomization — the
    worst case is O(n^3) but rings here are tiny and order must be stable
    for bit-reproducibility)."""
    pts = [(float(x), float(y)) for x, y in points]
    c = (pts[0][0], pts[0][1], 0.0)
    for i in range(1, len(pts)):
        if _contains(c, pts[i]):
            continue
        c = (pts[i][0], pts[i][1], 0.0)
        for j in range(i):
            if _contains(c, pts[j]):
                continue
            c = _circle_from_two(pts[i], pts[j])
            for k in range(j):
                if _contains(c, pts[k]):
                    continue
                cc = _circumcircle(pts[i], pts[j], pts[k])
                if cc is not None:
                    c = cc
    return c


def _brute_force_mec(points: np.ndarray):
    """Oracle twin: enumerate all pair/triple candidate circles, keep the
    smallest containing every point."""
    pts = [(float(x), float(y)) for x, y in points]
    n = len(pts)
    best = None
    cands = []
    for i in range(n):
        for j in range(i + 1, n):
            cands.append(_circle_from_two(pts[i], pts[j]))
            for k in range(j + 1, n):
                cc = _circumcircle(pts[i], pts[j], pts[k])
                if cc is not None:
                    cands.append(cc)
    if not cands:  # single point
        return (pts[0][0], pts[0][1], 0.0)
    for c in cands:
        if all(_contains(c, p) for p in pts):
            if best is None or (c[2], c[0], c[1]) < (best[2], best[0],
                                                     best[1]):
                best = c
    return best


def q_bounding_circle_stats(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        cx = np.empty(len(polys), dtype=np.float64)
        cy = np.empty(len(polys), dtype=np.float64)
        rsq = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            ext = _norm_exterior(rings)
            poly = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
            cx[i], cy[i], rsq[i] = _welzl(poly)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "mec_x": pa.array(cx, type=pa.float64()),
            "mec_y": pa.array(cy, type=pa.float64()),
            "mec_r_sq": pa.array(rsq, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_bounding_circle_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cx_, cy_, cr_ = [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        poly = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
        x, y, r = _brute_force_mec(poly)
        cx_.append(f"WHEN {f} THEN {x!r}")
        cy_.append(f"WHEN {f} THEN {y!r}")
        cr_.append(f"WHEN {f} THEN {r!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cx_)} END AS mec_x,
               CASE doc_id % {n} {' '.join(cy_)} END AS mec_y,
               CASE doc_id % {n} {' '.join(cr_)} END AS mec_r_sq
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def q_cumulative_unique_users(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "day": pa.array(day, type=pa.int64()),
        })

    first_seen = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id", "ts"])
        .map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("min", "day", "first_day")],
    )

    hist = grouped_aggregate(
        first_seen.select_columns(["first_day"]),
        ["first_day"], [("count", None, "new_users")],
    ).to_pandas().sort_values("first_day")  # bounded: calendar days

    hist["cum_users"] = hist["new_users"].cumsum()
    out = hist.rename(columns={"first_day": "day"}).reset_index(drop=True)
    for c in ("day", "new_users", "cum_users"):
        out[c] = out[c].astype("int64")
    return out[["day", "new_users", "cum_users"]]


SQL_CUMULATIVE_UNIQUE_USERS = f"""
WITH fs AS (
  SELECT user_id,
         MIN(CAST(epoch_us(ts) AS BIGINT) // {DAY_US}) AS day
  FROM events GROUP BY user_id
),
hist AS (
  SELECT day, CAST(COUNT(*) AS BIGINT) AS new_users FROM fs GROUP BY day
)
SELECT day, new_users,
       CAST(SUM(new_users) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS cum_users
FROM hist
"""


def build_queries_ext73() -> dict:
    return {
        "bounding_circle_stats": q_bounding_circle_stats,
        "cumulative_unique_users": q_cumulative_unique_users,
    }


def build_oracles_ext73() -> dict:
    return {
        "bounding_circle_stats": _sql_bounding_circle_stats(),
        "cumulative_unique_users": SQL_CUMULATIVE_UNIQUE_USERS,
    }
