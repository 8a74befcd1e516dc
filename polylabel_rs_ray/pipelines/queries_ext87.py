"""Round-3 extension operators, batch 87: paired sign-test statistics
and minimum-width bounding strip.

``yoy_sign_test`` — the distribution-free year-over-year comparison:
weekly revenue for two calendar years aligned by week-of-year, and
the sign-test sufficient statistics (n_pos / n_neg / n_zero weekly
diffs plus the exact integer diff total).  Everything is exact cents
through the bounded week histogram; the test's p-value is a consumer
fold over (n, k).

``min_width_stats`` — the minimum-width bounding strip (the rotating
calipers result): width = min over convex-hull edges of the maximum
vertex distance to that edge.  Distances compare as EXACT RATIONALS —
``cross² / len²`` cross-multiplied, dyadic inputs, no sqrt, no
division — so the chosen edge is deterministic and the oracle
constants are bit-stable.  Engine hull: the library monotone chain;
twin hull: an independent sequential chain.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WEEK_US = 7 * 86_400_000_000
YOY_YEAR_A = 1996
YOY_YEAR_B = 1997


# --------------------------------------------------------------------------
# yoy_sign_test
# --------------------------------------------------------------------------


def q_yoy_sign_test(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    lo_a = int(np.datetime64(f"{YOY_YEAR_A}-01-01", "us").astype(np.int64))
    hi_a = int(np.datetime64(f"{YOY_YEAR_A + 1}-01-01", "us").astype(np.int64))
    lo_b = int(np.datetime64(f"{YOY_YEAR_B}-01-01", "us").astype(np.int64))
    hi_b = int(np.datetime64(f"{YOY_YEAR_B + 1}-01-01", "us").astype(np.int64))

    def weekly(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64()).to_numpy()
        in_a = (t >= lo_a) & (t < hi_a)
        in_b = (t >= lo_b) & (t < hi_b)
        woy_a = (t[in_a] - lo_a) // WEEK_US  # week-of-year 0..52
        woy_b = (t[in_b] - lo_b) // WEEK_US
        tb = pa.table({
            "woy": pa.array(np.concatenate([woy_a, woy_b]), type=pa.int64()),
            "year": pa.array(
                np.concatenate([np.full(len(woy_a), YOY_YEAR_A, np.int64),
                                np.full(len(woy_b), YOY_YEAR_B, np.int64)]),
                type=pa.int64()),
            "cents": pa.array(np.concatenate([cents[in_a], cents[in_b]]),
                              type=pa.int64()),
        })
        out = tb.group_by(["woy", "year"]).aggregate([("cents", "sum")])
        return pa.table({
            "woy": out.column("woy"),
            "year": out.column("year"),
            "cents": pc.cast(out.column("cents_sum"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderdate", "o_totalprice"])
        .map_batches(weekly, batch_format="pyarrow", zero_copy_batch=True),
        ["woy", "year"], [("sum", "cents", "cents")],
    ).to_pandas()  # bounded: 53 weeks x 2 years

    a = np.zeros(53, dtype=np.int64)
    b = np.zeros(53, dtype=np.int64)
    for _, r in hist.iterrows():
        w = int(r["woy"])
        if w > 52:
            continue
        if int(r["year"]) == YOY_YEAR_A:
            a[w] = int(r["cents"])
        else:
            b[w] = int(r["cents"])
    diff = b - a
    import pandas as pd

    return pd.DataFrame({
        "n_weeks": [np.int64(53)],
        "n_pos": [np.int64(int((diff > 0).sum()))],
        "n_neg": [np.int64(int((diff < 0).sum()))],
        "n_zero": [np.int64(int((diff == 0).sum()))],
        "total_diff_cents": [np.int64(int(diff.sum()))],
    })


SQL_YOY_SIGN_TEST = f"""
WITH wk AS (
  SELECT (CAST(epoch_us(o_orderdate) AS BIGINT)
          - CAST(epoch_us(CAST(CAST(EXTRACT(year FROM o_orderdate) AS VARCHAR)
                               || '-01-01' AS TIMESTAMP)) AS BIGINT))
           // {WEEK_US} AS woy,
         CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS yr,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
  WHERE EXTRACT(year FROM o_orderdate) IN ({YOY_YEAR_A}, {YOY_YEAR_B})
),
hist AS (
  SELECT woy, yr, CAST(SUM(cents) AS BIGINT) AS cents
  FROM wk WHERE woy <= 52 GROUP BY woy, yr
),
grid AS (SELECT unnest(generate_series(0, 52)) AS woy),
ab AS (
  SELECT g.woy,
         COALESCE((SELECT cents FROM hist
                   WHERE woy = g.woy AND yr = {YOY_YEAR_A}), 0) AS a,
         COALESCE((SELECT cents FROM hist
                   WHERE woy = g.woy AND yr = {YOY_YEAR_B}), 0) AS b
  FROM grid g
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_weeks,
       CAST(SUM(CASE WHEN b > a THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
       CAST(SUM(CASE WHEN b < a THEN 1 ELSE 0 END) AS BIGINT) AS n_neg,
       CAST(SUM(CASE WHEN b = a THEN 1 ELSE 0 END) AS BIGINT) AS n_zero,
       CAST(SUM(b - a) AS BIGINT) AS total_diff_cents
FROM ab
"""


# --------------------------------------------------------------------------
# min_width_stats
# --------------------------------------------------------------------------


def _chain_hull(pts: list) -> list:
    """Monotone chain (twin-independent from geom_ops.convex_hull)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0]))

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
    return lower[:-1] + upper[:-1]


def _min_width_sq(hull: list) -> tuple[float, float]:
    """(num, den) with width² = num/den: per hull edge, the max |cross|²
    over vertices; the minimal edge chosen by exact cross-multiplication
    (num·den' < num'·den), first edge wins ties."""
    n = len(hull)
    if n < 3:
        return 0.0, 1.0
    best = None  # (num, den)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        den = ex * ex + ey * ey
        if den == 0.0:
            continue
        m = 0.0
        for px, py in hull:
            c = abs(ex * (py - ay) - ey * (px - ax))
            if c > m:
                m = c
        num = m * m
        # order-independent selection: strictly smaller ratio wins; equal
        # ratios prefer the smaller denominator (traversal order of the two
        # hull implementations differs, the chosen PAIR must not)
        if (best is None or num * best[1] < best[0] * den
                or (num * best[1] == best[0] * den and den < best[1])):
            best = (num, den)
    return best if best is not None else (0.0, 1.0)


def q_min_width_stats(sf_dir: str):
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
            num[i], den[i] = _min_width_sq(hull)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "hull_size": pa.array(hn, type=pa.int64()),
            "width_sq_num": pa.array(num, type=pa.float64()),
            "width_sq_den": pa.array(den, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_min_width_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    ch, cn, cd = [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        pts = [(float(px), float(py)) for px, py in
               (ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext)]
        hull = _chain_hull(pts)
        num, den = _min_width_sq(hull)
        ch.append(f"WHEN {f} THEN {len(hull)}")
        cn.append(f"WHEN {f} THEN {num!r}")
        cd.append(f"WHEN {f} THEN {den!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(ch)} END AS BIGINT)
                 AS hull_size,
               CASE doc_id % {n} {' '.join(cn)} END AS width_sq_num,
               CASE doc_id % {n} {' '.join(cd)} END AS width_sq_den
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext87() -> dict:
    return {
        "yoy_sign_test": q_yoy_sign_test,
        "min_width_stats": q_min_width_stats,
    }


def build_oracles_ext87() -> dict:
    return {
        "yoy_sign_test": SQL_YOY_SIGN_TEST,
        "min_width_stats": _sql_min_width_stats(),
    }
