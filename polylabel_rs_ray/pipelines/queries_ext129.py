"""Round-3 extension operators, batch 129: windowed anti-join (abandoned
views) + nearest-vertex fixture distance.

``abandoned_view_counts`` — the time-windowed ANTI join: per user, how
many of their 'view' events have NO 'purchase' by the same user
within the following hour (strictly after the view, at or before
view + 1h — the banded-theta strict/non-strict convention spelled out
so both engines replay the same boundary).  Shape: one hash
co-partition by user, per-partition lexsort, vectorized searchsorted
of each view into the user's purchase timeline (packed (user, ts)
keys; counts in the window via two boundary probes — no pair
materialization, the interval-stabbing discipline).  Exact integers.
Oracle: NOT EXISTS with the same interval.

``fixture_min_vertex_dist`` — per dyadic document, the MINIMUM
squared vertex-to-vertex distance from the document's normalized
exterior ring to the NEXT dyadic fixture's normalized exterior (the
min-min complement of ``hausdorff_fixture_pairs``' max-min), plus the
count of vertex pairs attaining it (tie multiplicity — an exact
integer only a bit-exact kernel gets right).  One broadcastered
(n_p, n_q) distance matrix per row; per-fixture constants; oracle
constants from an independent pure-Python all-pairs twin (the
diameter_stats discipline).

Reference anchors: range-join + shape-metrology families (SURVEY.md
§2.3/2.4); siblings: interval_overlap (stabbing identity),
order_burst_pairs (banded theta), hausdorff_fixture_pairs (same
fan-out, max-min), conversion latency ops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources import docs as docs_mod
from ..sources.fixtures import FIXTURE_CYCLE
from .agg import hash_exchange
from .queries_ext import _dyadic_rings_ds, _norm_exterior
from .queries_ext118 import _fixture_norm_ext, _next_dyadic

WINDOW_US = 3_600_000_000  # 1 hour


# --------------------------------------------------------------------------
# abandoned_view_counts
# --------------------------------------------------------------------------


def q_abandoned_view_counts(sf_dir: str, n_parts: int | None = None):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"])

    def keyed(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        keep = pc.or_(pc.equal(et, "view"), pc.equal(et, "purchase"))
        b = batch.filter(keep)
        uid = b.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pc.cast(b.column("ts"), pa.int64()),
            "is_view": pc.cast(pc.equal(b.column("event_type"), "view"),
                               pa.int8()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        isv = group.column("is_view").to_numpy().astype(bool)
        vu, vt = uid[isv], ts[isv]
        pu, pt = uid[~isv], ts[~isv]
        porder = np.lexsort((pt, pu))
        pu, pt = pu[porder], pt[porder]
        # packed (user-rank, ts-offset) keys make the interval probe ONE
        # vectorized searchsorted pair: rank·SPAN + (ts − tmin) is
        # monotone in (user, ts) and SPAN > ts-range + W + 1 prevents
        # cross-user bleed (rank < ~1e5, SPAN < ~3e12 → key < 2^60)
        if len(ts):
            tmin = int(ts.min())
            span = int(ts.max()) - tmin + WINDOW_US + 2
            users = np.unique(uid)
            prank = np.searchsorted(users, pu)
            vrank = np.searchsorted(users, vu)
            pk = prank * span + (pt - tmin)
            vbase = vrank * span + (vt - tmin)
            lo = np.searchsorted(pk, vbase, side="right")
            hi = np.searchsorted(pk, vbase + WINDOW_US, side="right")
        else:
            lo = hi = np.empty(0, dtype=np.int64)
        abandoned = (hi - lo) == 0
        t = pa.table({
            "user_id": pa.array(vu, type=pa.int64()),
            "one": pa.array(np.ones(len(vu), dtype=np.int64)),
            "ab": pa.array(abandoned.astype(np.int64)),
        })
        out = t.group_by(["user_id"]).aggregate(
            [("one", "sum"), ("ab", "sum")])
        return pa.table({
            "user_id": out.column("user_id"),
            "n_views": pc.cast(out.column("one_sum"), pa.int64()),
            "n_abandoned": pc.cast(out.column("ab_sum"), pa.int64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", per_partition, n_parts,
    )


SQL_ABANDONED_VIEW_COUNTS = """
WITH v AS (
  SELECT user_id, ts FROM events WHERE event_type = 'view'
)
SELECT v.user_id,
       CAST(COUNT(*) AS BIGINT) AS n_views,
       CAST(SUM(CASE WHEN NOT EXISTS (
           SELECT 1 FROM events p
           WHERE p.event_type = 'purchase'
             AND p.user_id = v.user_id
             AND p.ts > v.ts
             AND p.ts <= v.ts + INTERVAL 1 HOUR
       ) THEN 1 ELSE 0 END) AS BIGINT) AS n_abandoned
FROM v GROUP BY v.user_id
"""


# --------------------------------------------------------------------------
# fixture_min_vertex_dist
# --------------------------------------------------------------------------


def _min_dist_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    md = np.empty(len(polys), dtype=np.float64)
    ties = np.empty(len(polys), dtype=np.int64)
    for i, rings in enumerate(polys):
        p = _norm_exterior(rings)
        q = _fixture_norm_ext(
            FIXTURE_CYCLE[_next_dyadic(int(doc[i]) % docs_mod.N_FIXTURES)])
        dx = p[:, 0][:, None] - q[:, 0][None, :]
        dy = p[:, 1][:, None] - q[:, 1][None, :]
        d2 = dx * dx + dy * dy
        m = d2.min()
        md[i] = m
        ties[i] = int((d2 == m).sum())
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "min_d2": pa.array(md, type=pa.float64()),
        "n_min_pairs": pa.array(ties, type=pa.int64()),
    })


def q_fixture_min_vertex_dist(sf_dir: str):
    return _dyadic_rings_ds(sf_dir).map_batches(
        _min_dist_stage, batch_format="pyarrow", zero_copy_batch=True)


def _independent_min_dist(p_pts, q_pts):
    """Oracle-side twin: pure-Python all-pairs min + tie count."""
    best = None
    n = 0
    for (ax, ay) in p_pts:
        for (bx, by) in q_pts:
            d = (ax - bx) * (ax - bx) + (ay - by) * (ay - by)
            if best is None or d < best:
                best, n = d, 1
            elif d == best:
                n += 1
    return best, n


def _sql_fixture_min_vertex_dist() -> str:
    from .queries_ext import DYADIC_IDX

    n = docs_mod.N_FIXTURES
    cd, cn = [], []
    for fix_idx in DYADIC_IDX:
        p = _fixture_norm_ext(FIXTURE_CYCLE[fix_idx])
        q = _fixture_norm_ext(FIXTURE_CYCLE[_next_dyadic(fix_idx)])
        best, cnt = _independent_min_dist(
            [tuple(map(float, r)) for r in p],
            [tuple(map(float, r)) for r in q])
        cd.append(f"WHEN {fix_idx} THEN {best!r}")
        cn.append(f"WHEN {fix_idx} THEN {cnt}")
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num,
               doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cd)} END AS min_d2,
               CAST(CASE doc_id % {n} {' '.join(cn)} END AS BIGINT)
                   AS n_min_pairs
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext129() -> dict:
    return {
        "abandoned_view_counts": q_abandoned_view_counts,
        "fixture_min_vertex_dist": q_fixture_min_vertex_dist,
    }


def build_oracles_ext129() -> dict:
    return {
        "abandoned_view_counts": SQL_ABANDONED_VIEW_COUNTS,
        "fixture_min_vertex_dist": _sql_fixture_min_vertex_dist(),
    }
