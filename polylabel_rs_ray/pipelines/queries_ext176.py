"""Round-3 extension operators, batch 176: marching-squares case census
+ Allen interval-relation histogram.

``marching_squares_cases`` — the contouring primitive: every 2×2
window of the occupied res-5 lattice classifies into one of the 16
marching-squares cases (bit 1 = bottom-left (x, y), bit 2 =
bottom-right (x+1, y), bit 4 = top-right (x+1, y+1), bit 8 =
top-left (x, y+1)); emitted per case: window count and the total
iso-segment count (cases 0/15 → 0, the two saddles 5/10 → 2, all
others → 1 — the standard lookup, stated as part of the contract).
Engine: one vectorized 4-shift classification over the bounded
lattice after the distributed tile shuffle.  Oracle: a grid self-join
with EXISTS bits per corner and the same CASE lookup.

``allen_relation_histogram`` — Allen's interval algebra over the
per-(user, event_type) activity spans [first day, last day] (DAY granularity — measured to
populate five relations incl. the endpoint-equality ones, where
microsecond endpoints collapse the histogram to two): every
ordered pair of a user's five type-intervals (ordered by (start,
end, type) lexicographically) classifies into one of the 13 Allen
relations (before/meets/overlaps/starts/during/finishes/equals and
the inverses that remain possible under the ordering), and the
bounded relation histogram reduces globally.  Endpoint-equality
relations appear when type spans share a first or last event DAY;
degenerate same-endpoint configurations are resolved by a fixed
precedence (equals, before/_i, meets/_i, starts/_i, finishes/_i,
during/_i, overlaps/_i) applied identically in both engines.
Distributed shape: per-(user, type) min/max through the map-side
combine, pair classification vectorized per user group (≤ 10 pairs
each), bounded histogram reduce.  Oracle: the interval CTE +
lexicographic pair join + a 13-branch CASE.

Reference anchors: raster/contouring + temporal-logic families
(SURVEY.md §2.3/§2.4); siblings: tile_morph_open_close (window
classification), interval_overlap / peak_concurrency (interval
machinery), type_dwell_times (per-(user, type) spans).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

MS_RES = 5
# segments contributed per marching-squares case
MS_SEGMENTS = {0: 0, 15: 0, 5: 2, 10: 2}

ALLEN_NAMES = [
    "before", "meets", "overlaps", "starts", "during", "finishes",
    "equals", "before_i", "meets_i", "overlaps_i", "starts_i",
    "during_i", "finishes_i",
]


# --------------------------------------------------------------------------
# marching_squares_cases
# --------------------------------------------------------------------------


def q_marching_squares_cases(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, MS_RES)
    occ = (lat > 0).astype(np.int64)
    case = (occ[:-1, :-1]          # bit 1: bottom-left (x, y)
            + 2 * occ[1:, :-1]     # bit 2: bottom-right (x+1, y)
            + 4 * occ[1:, 1:]      # bit 4: top-right (x+1, y+1)
            + 8 * occ[:-1, 1:])    # bit 8: top-left (x, y+1)
    hist = np.bincount(case.ravel(), minlength=16)
    ids = np.flatnonzero(hist).astype(np.int64)
    segs = np.array([MS_SEGMENTS.get(int(i), 1) for i in ids],
                    dtype=np.int64)
    return ray.data.from_arrow(pa.table({
        "case_id": pa.array(ids, type=pa.int64()),
        "n_windows": pa.array(hist[ids], type=pa.int64()),
        "n_segments": pa.array(hist[ids] * segs, type=pa.int64()),
    }))


def _sql_marching_squares_cases() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << MS_RES
    seg_case = ("CASE WHEN cid IN (0, 15) THEN 0 "
                "WHEN cid IN (5, 10) THEN 2 ELSE 1 END")
    return _sql_grid_cte(MS_RES) + f"""
, win AS (
  SELECT g.ix, g.iy,
         (CASE WHEN EXISTS (SELECT 1 FROM occ c WHERE c.ix = g.ix
                            AND c.iy = g.iy) THEN 1 ELSE 0 END)
         + (CASE WHEN EXISTS (SELECT 1 FROM occ c WHERE c.ix = g.ix + 1
                              AND c.iy = g.iy) THEN 2 ELSE 0 END)
         + (CASE WHEN EXISTS (SELECT 1 FROM occ c WHERE c.ix = g.ix + 1
                              AND c.iy = g.iy + 1) THEN 4 ELSE 0 END)
         + (CASE WHEN EXISTS (SELECT 1 FROM occ c WHERE c.ix = g.ix
                              AND c.iy = g.iy + 1) THEN 8 ELSE 0 END)
           AS cid
  FROM grid g WHERE g.ix < {n - 1} AND g.iy < {n - 1}
)
SELECT CAST(cid AS BIGINT) AS case_id,
       CAST(COUNT(*) AS BIGINT) AS n_windows,
       CAST(COUNT(*) * ({seg_case}) AS BIGINT) AS n_segments
FROM win GROUP BY cid
"""


# --------------------------------------------------------------------------
# allen_relation_histogram
# --------------------------------------------------------------------------


def _classify_allen(s1, e1, s2, e2) -> np.ndarray:
    """Vectorized 13-way Allen classification of interval 1 vs 2."""
    out = np.empty(len(s1), dtype=object)
    rules = [
        ("equals", (s1 == s2) & (e1 == e2)),
        ("before", e1 < s2),
        ("before_i", e2 < s1),
        ("meets", e1 == s2),
        ("meets_i", e2 == s1),
        ("starts", (s1 == s2) & (e1 < e2)),
        ("starts_i", (s1 == s2) & (e2 < e1)),
        ("finishes", (e1 == e2) & (s1 > s2)),
        ("finishes_i", (e1 == e2) & (s2 > s1)),
        ("during", (s1 > s2) & (e1 < e2)),
        ("during_i", (s2 > s1) & (e2 < e1)),
        ("overlaps", (s1 < s2) & (e1 > s2) & (e1 < e2)),
        ("overlaps_i", (s2 < s1) & (e2 > s1) & (e2 < e1)),
    ]
    assigned = np.zeros(len(s1), dtype=bool)
    for name, mask in rules:
        take = mask & ~assigned
        out[take] = name
        assigned |= mask
    assert assigned.all()
    return out


def q_allen_relation_histogram(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("ts"), pa.int64()).to_numpy()
               // 86_400_000_000)
        return pa.table({
            "user_id": batch.column("user_id"),
            "event_type": batch.column("event_type"),
            "s": pa.array(day, type=pa.int64()),
            "e": pa.array(day, type=pa.int64()),
        })

    spans = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts", "event_type"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "event_type"],
        [("min", "s", "s"), ("max", "e", "e")],
    )

    def pairs(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        s = group.column("s").to_numpy().astype(np.int64)
        e = group.column("e").to_numpy().astype(np.int64)
        order = np.lexsort((et, e, s))
        s, e = s[order], e[order]
        k = len(s)
        i, j = np.triu_indices(k, k=1)
        rel = _classify_allen(s[i], e[i], s[j], e[j])
        t = pa.table({
            "relation": pa.array(rel.tolist(), type=pa.string()),
            "one": pa.array(np.ones(len(i), dtype=np.int64)),
        })
        g = t.group_by("relation").aggregate([("one", "sum")])
        return pa.table({
            "relation": g.column("relation"),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
        })

    per = group_map(spans, "user_id", pairs)
    return grouped_aggregate(per, ["relation"], [("sum", "n", "n")])


SQL_ALLEN_RELATION_HISTOGRAM = """
WITH iv AS MATERIALIZED (
  SELECT user_id, event_type,
         CAST(MIN(epoch_us(ts)) // 86400000000 AS BIGINT) AS s,
         CAST(MAX(epoch_us(ts)) // 86400000000 AS BIGINT) AS e
  FROM events GROUP BY 1, 2
), pr AS (
  SELECT a.s AS s1, a.e AS e1, b.s AS s2, b.e AS e2
  FROM iv a JOIN iv b
    ON a.user_id = b.user_id
   AND (a.s, a.e, a.event_type) < (b.s, b.e, b.event_type)
)
SELECT CASE
         WHEN s1 = s2 AND e1 = e2 THEN 'equals'
         WHEN e1 < s2 THEN 'before'
         WHEN e2 < s1 THEN 'before_i'
         WHEN e1 = s2 THEN 'meets'
         WHEN e2 = s1 THEN 'meets_i'
         WHEN s1 = s2 AND e1 < e2 THEN 'starts'
         WHEN s1 = s2 AND e2 < e1 THEN 'starts_i'
         WHEN e1 = e2 AND s1 > s2 THEN 'finishes'
         WHEN e1 = e2 AND s2 > s1 THEN 'finishes_i'
         WHEN s1 > s2 AND e1 < e2 THEN 'during'
         WHEN s2 > s1 AND e2 < e1 THEN 'during_i'
         WHEN s1 < s2 AND e1 > s2 AND e1 < e2 THEN 'overlaps'
         ELSE 'overlaps_i'
       END AS relation,
       CAST(COUNT(*) AS BIGINT) AS n
FROM pr GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext176():
    return {
        "marching_squares_cases": q_marching_squares_cases,
        "allen_relation_histogram": q_allen_relation_histogram,
    }


def build_oracles_ext176():
    return {
        "marching_squares_cases": _sql_marching_squares_cases(),
        "allen_relation_histogram": SQL_ALLEN_RELATION_HISTOGRAM,
    }
