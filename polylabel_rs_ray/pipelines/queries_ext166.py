"""Round-3 extension operators, batch 166: Cartesian-tree parents of the
daily revenue series + exact polar octant label statistics.

``daily_revenue_cartesian`` — the range-max index structure over the
time series, pinned by shape: the Cartesian tree of the daily order
revenue sequence (key = epoch day, priority = exact revenue cents,
ties broken "earlier day wins" so priorities are a strict total
order).  The classic characterization makes the shape value-checkable
without walking the tree: each node's parent is the SMALLER-priority
of its nearest strictly-greater neighbors to the left and right
(PGE / NGE), and the root is the global maximum.  Distributed shape:
the daily cents reduce through the map-side combine (the bounded
~2.5k-day domain of every daily-series sibling); the PGE/NGE pass is
one O(days) monotonic-stack fold on the bounded table.  The oracle
computes PGE/NGE independently as nearest-qualifying-day self-joins
(O(days²), bounded) — no stack, no recursion, shared with nothing.

``label_octant_stats`` — polar quadrat analysis of the computed label
points, EXACT end-to-end: labels of the dyadic fixture subset are
dyadic rationals (fixture constant, denominator ≤ 32, plus an integer
offset), so ``32·(label − 512)`` is an exact int64; octants around
the fixed center (512, 512) classify by three integer predicates
(sy < 0, sx < 0, |sx| < |sy| — boundary ties resolved by the < / ≥
conventions, identical in both engines), and the radial second moment
folds as the exact integer ``Σ(sx² + sy²)`` per octant (scale 32²).
One stateless vectorized map over the label stage output + the
bounded 8-row combine; the oracle replays the generator arithmetic
via the shared dyadic-labels CTE.

Reference anchors: DB-internals + spatial-statistics families
(SURVEY.md §2.3/§2.4); siblings: daily_revenue_acf / ivm_daily_revenue
(bounded daily-series folds), tile_seam_dp (shape-pinning contracts),
label_tile_clearance (exact integer-unit label arithmetic),
ripley_k_counts (spatial point statistics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

OCT_CENTER = 512.0  # exact integer center of the label-offset cloud
OCT_SCALE = 32      # clears every dyadic fixture denominator (<= 32)


# --------------------------------------------------------------------------
# daily_revenue_cartesian
# --------------------------------------------------------------------------


def q_daily_revenue_cartesian(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    daily = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "cents", "cents")],
    ).to_pandas()  # bounded: one row per calendar day
    daily = daily.sort_values("day").reset_index(drop=True)
    day = daily["day"].to_numpy().astype(np.int64)
    cents = daily["cents"].to_numpy().astype(np.int64)
    n = len(day)

    # strict priority order: (cents, -day) lexicographic, earlier day wins
    def greater(i: int, j: int) -> bool:
        return (cents[i], -day[i]) > (cents[j], -day[j])

    pge = np.full(n, -1, dtype=np.int64)  # index of nearest left greater
    stack: list[int] = []
    for i in range(n):  # bounded-domain fold (days, not rows)
        while stack and not greater(stack[-1], i):
            stack.pop()
        pge[i] = stack[-1] if stack else -1
        stack.append(i)
    nge = np.full(n, -1, dtype=np.int64)
    stack = []
    for i in range(n - 1, -1, -1):
        while stack and not greater(stack[-1], i):
            stack.pop()
        nge[i] = stack[-1] if stack else -1
        stack.append(i)

    parent = np.full(n, -1, dtype=np.int64)
    side = np.empty(n, dtype=object)
    for i in range(n):
        l, r = pge[i], nge[i]
        if l < 0 and r < 0:
            side[i] = "root"
        elif l < 0 or (r >= 0 and greater(l, r)):
            parent[i] = day[r]
            side[i] = "R"
        else:
            parent[i] = day[l]
            side[i] = "L"
    return ray.data.from_arrow(pa.table({
        "day": pa.array(day, type=pa.int64()),
        "cents": pa.array(cents, type=pa.int64()),
        "parent_day": pa.array(parent, type=pa.int64()),
        "side": pa.array(side.tolist(), type=pa.string()),
    }))


SQL_DAILY_REVENUE_CARTESIAN = """
WITH daily AS MATERIALIZED (
  SELECT CAST(date_diff('day', DATE '1970-01-01',
                        CAST(o_orderdate AS DATE)) AS BIGINT) AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
), pge AS (
  SELECT v.day,
         (SELECT MAX(u.day) FROM daily u
          WHERE u.day < v.day
            AND (u.cents > v.cents
                 OR (u.cents = v.cents AND u.day < v.day))) AS l
  FROM daily v
), nge AS (
  SELECT v.day,
         (SELECT MIN(u.day) FROM daily u
          WHERE u.day > v.day
            AND (u.cents > v.cents
                 OR (u.cents = v.cents AND u.day < v.day))) AS r
  FROM daily v
)
SELECT d.day, d.cents,
       CAST(CASE
         WHEN p.l IS NULL AND g.r IS NULL THEN -1
         WHEN p.l IS NULL THEN g.r
         WHEN g.r IS NULL THEN p.l
         WHEN (dl.cents, -dl.day) > (dr.cents, -dr.day) THEN g.r
         ELSE p.l
       END AS BIGINT) AS parent_day,
       CASE
         WHEN p.l IS NULL AND g.r IS NULL THEN 'root'
         WHEN p.l IS NULL THEN 'R'
         WHEN g.r IS NULL THEN 'L'
         WHEN (dl.cents, -dl.day) > (dr.cents, -dr.day) THEN 'R'
         ELSE 'L'
       END AS side
FROM daily d
JOIN pge p ON p.day = d.day
JOIN nge g ON g.day = d.day
LEFT JOIN daily dl ON dl.day = p.l
LEFT JOIN daily dr ON dr.day = g.r
"""


# --------------------------------------------------------------------------
# label_octant_stats
# --------------------------------------------------------------------------


def q_label_octant_stats(sf_dir: str):
    from .agg import grouped_aggregate
    from .queries import _dyadic_labeled

    def stage(batch: pa.Table) -> pa.Table:
        sx = np.round((batch.column("label_x").to_numpy() - OCT_CENTER)
                      * OCT_SCALE).astype(np.int64)
        sy = np.round((batch.column("label_y").to_numpy() - OCT_CENTER)
                      * OCT_SCALE).astype(np.int64)
        octant = ((sy < 0).astype(np.int64) * 4
                  + (sx < 0).astype(np.int64) * 2
                  + (np.abs(sx) < np.abs(sy)).astype(np.int64))
        r2 = sx * sx + sy * sy
        t = pa.table({
            "octant": pa.array(octant, type=pa.int64()),
            "one": pa.array(np.ones(len(sx), dtype=np.int64)),
            "r2": pa.array(r2, type=pa.int64()),
        })
        g = t.group_by("octant").aggregate([("one", "sum"), ("r2", "sum")])
        return pa.table({
            "octant": g.column("octant"),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
            "sum_r2_scaled": pc.cast(g.column("r2_sum"), pa.int64()),
        })

    return grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(
            stage, batch_format="pyarrow", zero_copy_batch=True),
        ["octant"], [("sum", "n", "n"),
                     ("sum", "sum_r2_scaled", "sum_r2_scaled")],
    )


def _sql_label_octant_stats() -> str:
    from .queries import _sql_dyadic_labels_cte

    sx = f"CAST(ROUND((label_x - {OCT_CENTER!r}) * {OCT_SCALE}) AS BIGINT)"
    sy = f"CAST(ROUND((label_y - {OCT_CENTER!r}) * {OCT_SCALE}) AS BIGINT)"
    return f"""
WITH labels AS MATERIALIZED ({_sql_dyadic_labels_cte()}),
scaled AS (
  SELECT {sx} AS sx, {sy} AS sy FROM labels
)
SELECT CAST(CASE WHEN sy < 0 THEN 4 ELSE 0 END
            + CASE WHEN sx < 0 THEN 2 ELSE 0 END
            + CASE WHEN abs(sx) < abs(sy) THEN 1 ELSE 0 END
       AS BIGINT) AS octant,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(sx * sx + sy * sy) AS BIGINT) AS sum_r2_scaled
FROM scaled
GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext166():
    return {
        "daily_revenue_cartesian": q_daily_revenue_cartesian,
        "label_octant_stats": q_label_octant_stats,
    }


def build_oracles_ext166():
    return {
        "daily_revenue_cartesian": SQL_DAILY_REVENUE_CARTESIAN,
        "label_octant_stats": _sql_label_octant_stats(),
    }
