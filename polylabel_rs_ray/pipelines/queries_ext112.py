"""Round-3 extension operators, batch 112: peak concurrency + min-area
rectangle.

``peak_concurrency`` — the sweep-line classic: the maximum number of
simultaneously-active (user, day) activity intervals ``[first_ts,
last_ts]`` and the earliest instant it is reached.  Closed intervals
decrement at ``end + 1µs`` so no same-instant +/− ordering ambiguity
exists; net deltas aggregate PER TIMESTAMP first, so the running sum
is order-free.  Distributed shape: per-(user, day) interval endpoints
come from one high-cardinality exchange; delta rows then partition by
arithmetic TIME RANGE (the token_packing / ext39 prefix pattern) —
each partition prefix-sums locally and the driver stitches P offsets;
the peak is max(local_max + offset), earliest-tie pinned.  No global
sort.

``min_area_rect_stats`` — rotating-calipers minimum-AREA enclosing
rectangle per dyadic fixture (completing the calipers family:
diameter ext11, min-width strip ext87): for each hull edge, area =
max|cross| · (max_proj − min_proj) / |edge|² — an exact dyadic
rational; the minimal edge is chosen by cross-multiplied comparison
with the smaller-denominator tie rule, so the two independent hull
traversals (engine hull vs monotone-chain twin) select the same pair
bit-for-bit.  Width·height ≥ area of the min-width strip square is
NOT asserted (incomparable quantities); rect area ≥ polygon bbox-free
hull area IS (containment), pinned in tests.

Reference anchors: geometry metrology surface (SURVEY.md §2.2/§2.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

DAY_US = 86_400_000_000


# --------------------------------------------------------------------------
# peak_concurrency
# --------------------------------------------------------------------------


def q_peak_concurrency(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    P = n_partitions(n_parts)

    def interval_partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        uid = batch.column("user_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        day = ts // DAY_US
        g = pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "day": pa.array(day, type=pa.int64()),
            "s": pa.array(ts, type=pa.int64()),
            "e": pa.array(ts, type=pa.int64()),
        }).group_by(["user_id", "day"]).aggregate(
            [("s", "min"), ("e", "max")])
        return pa.table({
            "user_id": g.column("user_id"), "day": g.column("day"),
            "s": g.column("s_min"), "e": g.column("e_max"),
        })

    intervals = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["ts", "user_id"])
        .map_batches(interval_partials, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["user_id", "day"], [("min", "s", "s"), ("max", "e", "e")],
    )

    # probe the global time span once (two scalar reduces) for the
    # arithmetic range partitioner
    lo = intervals.min("s")
    hi = intervals.max("e") + 2  # decrements land at e+1
    span = max(int(hi - lo), 1)

    def delta_rows(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy().astype(np.int64)
        e = batch.column("e").to_numpy().astype(np.int64) + 1
        t = np.concatenate([s, e])
        d = np.concatenate([np.ones(len(s), np.int64),
                            -np.ones(len(s), np.int64)])
        g = pa.table({
            "t": pa.array(t, type=pa.int64()),
            "d": pa.array(d, type=pa.int64()),
        }).group_by(["t"]).aggregate([("d", "sum")])
        tt = g.column("t").to_numpy().astype(np.int64)
        rng = ((tt - lo) * P) // span
        return pa.table({
            "part": pa.array(rng, type=pa.int64()),
            "t": g.column("t"),
            "d": g.column("d_sum"),
        })

    def local_scan(group: pa.Table) -> pa.Table:
        part = int(group.column("part")[0].as_py())
        g = group.group_by(["t"]).aggregate([("d", "sum")])
        t = g.column("t").to_numpy().astype(np.int64)
        d = g.column("d_sum").to_numpy().astype(np.int64)
        order = np.argsort(t)
        t, d = t[order], d[order]
        run = np.cumsum(d)
        k = int(np.argmax(run))  # first max: earliest tie within partition
        return pa.table({
            "part": pa.array([part], type=pa.int64()),
            "local_max": pa.array([int(run[k])], type=pa.int64()),
            "local_max_t": pa.array([int(t[k])], type=pa.int64()),
            "total": pa.array([int(run[-1])], type=pa.int64()),
            "n_points": pa.array([len(t)], type=pa.int64()),
        })

    parts = group_map(
        intervals.map_batches(delta_rows, batch_format="pyarrow", zero_copy_batch=True),
        "part", local_scan,
    ).to_pandas()  # bounded: P rows
    parts = parts.sort_values("part").reset_index(drop=True)
    offsets = parts["total"].cumsum().shift(fill_value=0)
    gmax = (parts["local_max"] + offsets).astype(int)
    peak = int(gmax.max())
    # earliest instant: the FIRST partition (time-ordered) achieving peak
    i = int(gmax.eq(peak).idxmax())
    peak_ts = int(parts.loc[i, "local_max_t"])
    n_intervals = int(parts["n_points"].sum())  # distinct delta instants
    return pa.table({
        "peak": pa.array([peak], type=pa.int64()),
        "peak_ts_us": pa.array([peak_ts], type=pa.int64()),
        "n_delta_points": pa.array([n_intervals], type=pa.int64()),
    })


SQL_PEAK_CONCURRENCY = f"""
WITH iv AS (
  SELECT user_id,
         epoch_us(ts) // {DAY_US} AS day,
         MIN(epoch_us(ts)) AS s, MAX(epoch_us(ts)) AS e
  FROM events GROUP BY 1, 2
),
pts AS (
  SELECT s AS t, 1 AS d FROM iv
  UNION ALL
  SELECT e + 1 AS t, -1 AS d FROM iv
),
net AS (SELECT t, SUM(d) AS d FROM pts GROUP BY t),
scan AS (
  SELECT t, SUM(d) OVER (ORDER BY t) AS run FROM net
),
best AS (SELECT t, run FROM scan ORDER BY run DESC, t ASC LIMIT 1)
SELECT CAST(best.run AS BIGINT) AS peak,
       CAST(best.t AS BIGINT) AS peak_ts_us,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM net) AS n_delta_points
FROM best
"""


# --------------------------------------------------------------------------
# min_area_rect_stats
# --------------------------------------------------------------------------


def _min_area_rect(hull: list) -> tuple[float, float]:
    """(num, den) with rect area = num/den: per hull edge, max|cross| x
    projection extent over the edge direction; minimal edge by exact
    cross-multiplication, smaller den on ties (order-independent across
    hull traversals)."""
    n = len(hull)
    if n < 3:
        return 0.0, 1.0
    best = None
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        den = ex * ex + ey * ey
        if den == 0.0:
            continue
        m = 0.0
        pmin = pmax = None
        for px, py in hull:
            c = abs(ex * (py - ay) - ey * (px - ax))
            if c > m:
                m = c
            proj = ex * (px - ax) + ey * (py - ay)
            if pmin is None or proj < pmin:
                pmin = proj
            if pmax is None or proj > pmax:
                pmax = proj
        num = m * (pmax - pmin)
        if (best is None or num * best[1] < best[0] * den
                or (num * best[1] == best[0] * den and den < best[1])):
            best = (num, den)
    return best if best is not None else (0.0, 1.0)


def q_min_area_rect_stats(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy
    from .geom_ops import convex_hull

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        num = np.empty(len(polys), dtype=np.float64)
        den = np.empty(len(polys), dtype=np.float64)
        hn = np.empty(len(polys), dtype=np.int64)
        for i, rings in enumerate(polys):
            ext = _norm_exterior(rings)
            hull_arr = convex_hull(ext)
            hull = [(float(px), float(py)) for px, py in hull_arr]
            hn[i] = len(hull)
            num[i], den[i] = _min_area_rect(hull)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "hull_size": pa.array(hn, type=pa.int64()),
            "rect_area_num": pa.array(num, type=pa.float64()),
            "rect_area_den": pa.array(den, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_min_area_rect_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior
    from .queries_ext87 import _chain_hull

    ch, cn, cd = [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings])
        pts = [(float(px), float(py)) for px, py in
               (ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext)]
        hull = _chain_hull(pts)
        num, den = _min_area_rect(hull)
        ch.append(f"WHEN {f} THEN {len(hull)}")
        cn.append(f"WHEN {f} THEN {num!r}")
        cd.append(f"WHEN {f} THEN {den!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(ch)} END AS BIGINT)
                 AS hull_size,
               CASE doc_id % {n} {' '.join(cn)} END AS rect_area_num,
               CASE doc_id % {n} {' '.join(cd)} END AS rect_area_den
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext112() -> dict:
    return {
        "peak_concurrency": q_peak_concurrency,
        "min_area_rect_stats": q_min_area_rect_stats,
    }


def build_oracles_ext112() -> dict:
    return {
        "peak_concurrency": SQL_PEAK_CONCURRENCY,
        "min_area_rect_stats": _sql_min_area_rect_stats(),
    }
