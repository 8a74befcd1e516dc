"""Round-3 extension operators, batch 93: onion-peeling depth and
burstiness.

``onion_depth`` — convex-layer decomposition (onion peeling) of each
fixture's vertex set: repeatedly remove the convex hull until no
points remain; report the layer count and the sizes of the first two
layers.  The engine peels with the library hull; the twin peels with
an independent monotone chain — layer SETS are unique, so the counts
agree exactly.

``daily_fano_factor`` — burstiness of the per-type daily event
counts: the Fano factor (variance / mean) as the EXACT integer
rational ``(n·Σx² - (Σx)², n·Σx)`` over the zero-filled day grid —
1 is Poisson-like, > 1 bursty, < 1 regular.  Bounded day x type
histogram; integer moments throughout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


# --------------------------------------------------------------------------
# onion_depth
# --------------------------------------------------------------------------


def _peel(points: set, hull_fn) -> tuple[int, int, int]:
    """(n_layers, layer1_size, layer2_size) peeling with hull_fn
    (callable: list[(x,y)] -> hull list)."""
    pts = set(points)
    sizes = []
    while pts:
        if len(pts) <= 2:
            sizes.append(len(pts))
            break
        hull = hull_fn(sorted(pts))
        if not hull:
            sizes.append(len(pts))
            break
        sizes.append(len(hull))
        pts -= set(hull)
    l1 = sizes[0] if sizes else 0
    l2 = sizes[1] if len(sizes) > 1 else 0
    return len(sizes), l1, l2


def _engine_hull(pts: list) -> list:
    from .geom_ops import convex_hull

    arr = convex_hull(np.asarray(pts, dtype=np.float64))
    return [(float(x), float(y)) for x, y in arr]


def _twin_hull(pts: list) -> list:
    from .queries_ext87 import _chain_hull

    return _chain_hull(pts)


def q_onion_depth(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        depth = np.empty(len(polys), dtype=np.int64)
        l1 = np.empty(len(polys), dtype=np.int64)
        l2 = np.empty(len(polys), dtype=np.int64)
        for i, rings in enumerate(polys):
            ext = _norm_exterior(rings)
            pts = {(float(x), float(y)) for x, y in
                   (ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext)}
            depth[i], l1[i], l2[i] = _peel(pts, _engine_hull)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "n_layers": pa.array(depth, type=pa.int64()),
            "layer1_size": pa.array(l1, type=pa.int64()),
            "layer2_size": pa.array(l2, type=pa.int64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_onion_depth() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cd, c1, c2 = [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        pts = {(float(x), float(y)) for x, y in
               (ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext)}
        d, l1, l2 = _peel(pts, _twin_hull)
        cd.append(f"WHEN {f} THEN {d}")
        c1.append(f"WHEN {f} THEN {l1}")
        c2.append(f"WHEN {f} THEN {l2}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(cd)} END AS BIGINT)
                 AS n_layers,
               CAST(CASE doc_id % {n} {' '.join(c1)} END AS BIGINT)
                 AS layer1_size,
               CAST(CASE doc_id % {n} {' '.join(c2)} END AS BIGINT)
                 AS layer2_size
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# daily_fano_factor
# --------------------------------------------------------------------------


def q_daily_fano_factor(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def daily(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // DAY_US
        t = pa.table({
            "event_type": batch.column("event_type"),
            "day": pa.array(day, type=pa.int64()),
        })
        out = t.group_by(["event_type", "day"]).aggregate([("day", "count")])
        return pa.table({
            "event_type": out.column("event_type"),
            "day": out.column("day"),
            "n": pc.cast(out.column("day_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["ts", "event_type"])
        .map_batches(daily, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "day"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: type x day

    import pandas as pd

    lo, hi = int(hist["day"].min()), int(hist["day"].max())
    n_days = hi - lo + 1
    rows = []
    for etype, g in hist.groupby("event_type"):
        x = np.zeros(n_days, dtype=np.int64)
        x[g["day"].to_numpy().astype(np.int64) - lo] = \
            g["n"].to_numpy().astype(np.int64)
        s = int(x.sum())
        s2 = int((x * x).sum())
        rows.append({
            "event_type": etype,
            "n_days": n_days,
            "fano_num": n_days * s2 - s * s,
            "fano_den": n_days * s,
        })
    out = pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)
    for c in ("n_days", "fano_num", "fano_den"):
        out[c] = out[c].astype("int64")
    return out


SQL_DAILY_FANO_FACTOR = f"""
WITH ev AS (
  SELECT event_type, CAST(epoch_us(ts) AS BIGINT) // {DAY_US} AS day
  FROM events
),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi, hi - lo + 1 AS nd FROM ev),
days AS (SELECT unnest(generate_series(lo, hi)) AS day FROM bounds),
types AS (SELECT DISTINCT event_type FROM ev),
grid AS (SELECT t.event_type, d.day FROM types t, days d),
cnt AS (
  SELECT event_type, day, CAST(COUNT(*) AS BIGINT) AS n
  FROM ev GROUP BY event_type, day
),
filled AS (
  SELECT g.event_type, COALESCE(c.n, 0) AS n
  FROM grid g LEFT JOIN cnt c
    ON g.event_type = c.event_type AND g.day = c.day
)
SELECT f.event_type,
       CAST(b.nd AS BIGINT) AS n_days,
       CAST(b.nd * SUM(f.n * f.n) - SUM(f.n) * SUM(f.n) AS BIGINT)
         AS fano_num,
       CAST(b.nd * SUM(f.n) AS BIGINT) AS fano_den
FROM filled f, bounds b
GROUP BY f.event_type, b.nd
"""


def build_queries_ext93() -> dict:
    return {
        "onion_depth": q_onion_depth,
        "daily_fano_factor": q_daily_fano_factor,
    }


def build_oracles_ext93() -> dict:
    return {
        "onion_depth": _sql_onion_depth(),
        "daily_fano_factor": SQL_DAILY_FANO_FACTOR,
    }
