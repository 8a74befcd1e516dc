"""Round-3 extension operators, batch 57: shape quality + RANGE windows.

* ``convexity_stats`` — per-polygon convexity ratio |ring area| / hull
  area (1.0 exactly for convex shapes, < 1 for concave, 0 for the
  degenerate zero-area fixtures): both areas are dyadic shoelace sums so
  the single float division is bit-exact; the SQL replays per-fixture
  constants from the INDEPENDENT pure-Python twin (the diameter_stats
  discipline — hull via a separate sequential implementation, not the
  engine's ``convex_hull``).
* ``daily_revenue_7d`` — the RANGE-interval window family (the ROWS
  windows are covered by rolling_user_stats): per order day, exact
  revenue cents plus the trailing-7-day revenue sum.  Daily revenue is a
  bounded map-side-combined aggregate; the trailing sum is computed on
  the BOUNDED day table with a two-pointer prefix difference — no
  per-row window scan, exact integers throughout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
WINDOW_DAYS = 7


# --------------------------------------------------------------------------
# convexity_stats
# --------------------------------------------------------------------------


def q_convexity_stats(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy
    from .geom_ops import convex_hull, ring_area

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        ring_a = np.empty(len(polys), dtype=np.float64)
        hull_a = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            ext = _norm_exterior(rings)
            ring_a[i] = abs(ring_area(ext))
            hull_a[i] = ring_area(convex_hull(ext))
        conv = np.where(hull_a == 0.0, 0.0, ring_a / hull_a)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
            "ring_area": pa.array(ring_a, type=pa.float64()),
            "hull_area": pa.array(hull_a, type=pa.float64()),
            "convexity": pa.array(conv, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _independent_hull_area(ext: np.ndarray) -> float:
    """Oracle twin: sequential pure-Python monotone chain + shoelace,
    sharing no code with pipelines/geom_ops under test."""
    pts = sorted({(float(x), float(y)) for x, y in ext})
    if len(pts) < 3:
        return 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    s = 0.0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0


def _independent_ring_area(ext: np.ndarray) -> float:
    pts = [(float(x), float(y)) for x, y in ext]
    s = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0


def _sql_convexity_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cases_r, cases_h, cases_c = [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        ra = _independent_ring_area(ext)
        ha = _independent_hull_area(ext)
        conv = 0.0 if ha == 0.0 else ra / ha
        cases_r.append(f"WHEN {f} THEN {ra!r}")
        cases_h.append(f"WHEN {f} THEN {ha!r}")
        cases_c.append(f"WHEN {f} THEN {conv!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cases_r)} END AS ring_area,
               CASE doc_id % {n} {' '.join(cases_h)} END AS hull_area,
               CASE doc_id % {n} {' '.join(cases_c)} END AS convexity
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# daily_revenue_7d
# --------------------------------------------------------------------------


def q_daily_revenue_7d(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def daily(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy() // DAY_US
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)), pa.int64()
        ).to_numpy()
        t = pa.table({
            "day": pa.array(day, type=pa.int64()),
            "rev": pa.array(cents, type=pa.int64()),
        })
        out = t.group_by(["day"]).aggregate([("rev", "sum")])
        return pa.table({
            "day": out.column("day"),
            "rev_cents": pc.cast(out.column("rev_sum"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(daily, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "rev_cents", "rev_cents")],
    ).to_pandas().sort_values("day")  # bounded: one row per calendar day

    days = hist["day"].to_numpy().astype(np.int64)
    rev = hist["rev_cents"].to_numpy().astype(np.int64)
    pref = np.concatenate([[0], np.cumsum(rev)])
    lo = np.searchsorted(days, days - (WINDOW_DAYS - 1), side="left")
    hi = np.arange(1, len(days) + 1)
    trailing = pref[hi] - pref[lo]
    t = pa.table({
        "day": pa.array(days, type=pa.int64()),
        "rev_cents": pa.array(rev, type=pa.int64()),
        "rev_7d_cents": pa.array(trailing, type=pa.int64()),
    })
    return ray.data.from_arrow(t)


SQL_DAILY_REVENUE_7D = f"""
WITH daily AS (
  SELECT epoch_us(o_orderdate) // {DAY_US} AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS rev_cents
  FROM orders GROUP BY 1
)
SELECT CAST(day AS BIGINT) AS day, rev_cents,
       CAST(SUM(rev_cents) OVER (
           ORDER BY day RANGE BETWEEN {WINDOW_DAYS - 1} PRECEDING
                                  AND CURRENT ROW) AS BIGINT) AS rev_7d_cents
FROM daily
"""


def build_queries_ext57() -> dict:
    return {
        "convexity_stats": q_convexity_stats,
        "daily_revenue_7d": q_daily_revenue_7d,
    }


def build_oracles_ext57() -> dict:
    return {
        "convexity_stats": _sql_convexity_stats(),
        "daily_revenue_7d": SQL_DAILY_REVENUE_7D,
    }
