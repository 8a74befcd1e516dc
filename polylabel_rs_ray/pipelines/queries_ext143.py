"""Round-3 extension operators, batch 143: rotational symmetry
classification + week-over-week retention.

``rotation_symmetry_audit`` — per dyadic document, whether the
exterior VERTEX SET is invariant under 180° and 90° rotation about
the bbox center (the dihedral-group complement of
mirror_symmetry_audit): on the ×2-scaled integer lattice the center
``(W, H)`` is integral, rotations are exact integer maps
(180°: p → 2c − p; 90°: (x,y) → (cx + cy − y, cy − cx + x), which can
only be a symmetry when W == H), and vertex-SET equality is
engine-neutral.  Oracle constants from an independent pure-Python
twin (sorted-list comparison, the mirror_symmetry discipline).

``wow_retention`` — week-over-week retention: for every observed week
w, the number of active users and how many of them are also active in
week w+1.  The per-user week-bitmask collapses through ONE hash
aggregate (weeks span ≤ 62 so ``Σ distinct 2^(w−w0)`` is an exact
int64 mask — the audience_overlap discipline on the time axis), then
a bounded mask histogram folds to the retention pairs on the driver.
Oracle: distinct (user, week) self-join on w+1.

Reference anchors: shape-metrology + cohort families (SURVEY.md
§2.3/2.4); siblings: mirror_symmetry_audit (vertex-set symmetry),
cohort_retention (monthly cohorts), users_every_week (week division),
audience_overlap_matrix (bitmask algebra).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WEEK_US = 7 * 86_400_000_000


# --------------------------------------------------------------------------
# rotation_symmetry_audit
# --------------------------------------------------------------------------


def _vertex_set_x2(ext: np.ndarray) -> set:
    """Distinct vertices on the ×2 integer lattice, normalized to
    bbox.min (drops the duplicated closing vertex via the set)."""
    r = ((ext - ext.min(axis=0)) * 2.0).astype(np.int64)
    return {(int(x), int(y)) for x, y in r}


def _rot_flags(ext: np.ndarray) -> tuple[bool, bool]:
    pts = _vertex_set_x2(ext)
    w = max(p[0] for p in pts)
    h = max(p[1] for p in pts)
    # bbox center is (w/2, h/2); 2c − p = (w − x, h − y) stays integral,
    # and on the ×2 lattice w, h are even so the 90° map is integral too
    rot180 = {(w - x, h - y) for x, y in pts} == pts
    if w == h:
        c2 = (w + h) // 2
        d2 = (h - w) // 2
        rot90 = {(c2 - y, d2 + x) for x, y in pts} == pts
    else:
        rot90 = False
    return rot180, rot90


def q_rotation_symmetry_audit(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy
    from .queries_ext import _dyadic_rings_ds

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        r180 = np.empty(len(polys), dtype=bool)
        r90 = np.empty(len(polys), dtype=bool)
        for i, rings in enumerate(polys):
            r180[i], r90[i] = _rot_flags(rings[0])
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "rot180": pa.array(r180, type=pa.bool_()),
            "rot90": pa.array(r90, type=pa.bool_()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True)


def _twin_rot_flags(name: str) -> tuple[bool, bool]:
    """Independent pure-Python twin: sorted-list equality, explicit
    loops, no numpy, no shared helpers."""
    from ..sources.fixtures import FIXTURES

    ring = FIXTURES[name].rings[0]
    xs = [float(p[0]) for p in ring]
    ys = [float(p[1]) for p in ring]
    x0, y0 = min(xs), min(ys)
    pts = sorted(set((round((x - x0) * 2), round((y - y0) * 2))
                     for x, y in zip(xs, ys)))
    w = max(p[0] for p in pts)
    h = max(p[1] for p in pts)
    r180 = sorted(set((w - x, h - y) for x, y in pts)) == pts
    if w == h:
        r90 = sorted(set(((w + h) // 2 - y, (h - w) // 2 + x)
                         for x, y in pts)) == pts
    else:
        r90 = False
    return r180, r90


def _sql_rotation_symmetry_audit() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import FIXTURE_CYCLE
    from .queries_ext import DYADIC_IDX

    n = docs_mod.N_FIXTURES
    c180, c90 = [], []
    for fix_idx in DYADIC_IDX:
        r180, r90 = _twin_rot_flags(FIXTURE_CYCLE[fix_idx])
        c180.append(f"WHEN {fix_idx} THEN {str(r180).upper()}")
        c90.append(f"WHEN {fix_idx} THEN {str(r90).upper()}")
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num,
               doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(c180)} END AS rot180,
               CASE doc_id % {n} {' '.join(c90)} END AS rot90
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# wow_retention
# --------------------------------------------------------------------------


def q_wow_retention(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    # global week origin: one bounded min fold off the source read
    def wmin(batch: pa.Table) -> pa.Table:
        wk = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // WEEK_US
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "w0": pa.array([int(wk.min())], type=pa.int64()),
            "w1": pa.array([int(wk.max())], type=pa.int64()),
        })

    b = grouped_aggregate(
        ds.map_batches(wmin, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("min", "w0", "w0"), ("max", "w1", "w1")],
    ).to_pandas()
    w0, w1 = int(b["w0"][0]), int(b["w1"][0])
    n_weeks = w1 - w0 + 1  # bounded; span/7 << 62

    def masks(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        wk = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // WEEK_US
        t = pa.table({
            "k": pa.array(uid, type=pa.int64()),
            "bit": pa.array(np.int64(1) << (wk - w0), type=pa.int64()),
        })
        # per-batch OR via max over distinct (user, bit) then sum of
        # distinct bits == OR since bits are powers of two deduped
        out = t.group_by(["k", "bit"]).aggregate([("bit", "count")])
        return pa.table({
            "k": out.column("k"),
            "mask": out.column("bit"),
        })

    # distinct (user, bit) across blocks, then Σ bits == the OR mask
    ub = grouped_aggregate(
        ds.map_batches(masks, batch_format="pyarrow", zero_copy_batch=True)
          .map_batches(lambda t: pa.table({
              "k": t.column("k"), "mask": t.column("mask"),
              "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
          }), batch_format="pyarrow", zero_copy_batch=True),
        ["k", "mask"], [("sum", "one", "n")],
    )

    def fold(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch.column("k"),
            "mask": batch.column("mask"),
        })

    per_user = grouped_aggregate(
        ub.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("sum", "mask", "mask")],
    )

    def mask_hist(batch: pa.Table) -> pa.Table:
        m = batch.column("mask").to_numpy().astype(np.int64)
        t = pa.table({"mask": pa.array(m, type=pa.int64())})
        out = t.group_by(["mask"]).aggregate([("mask", "count")])
        return pa.table({
            "mask": out.column("mask"),
            "n": pc.cast(out.column("mask_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        per_user.map_batches(mask_hist, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["mask"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: <= 2^n_weeks masks (weeks ~ 5)

    active = np.zeros(n_weeks, dtype=np.int64)
    retained = np.zeros(n_weeks, dtype=np.int64)
    for r in hist.itertuples():
        m, n = int(r.mask), int(r.n)
        for w in range(n_weeks):
            if m >> w & 1:
                active[w] += n
                if w + 1 < n_weeks and m >> (w + 1) & 1:
                    retained[w] += n
    return ray.data.from_arrow(pa.table({
        "week": pa.array(np.arange(w0, w1 + 1), type=pa.int64()),
        "n_active": pa.array(active, type=pa.int64()),
        "n_retained": pa.array(retained, type=pa.int64()),
    }))


SQL_WOW_RETENTION = f"""
WITH uw AS (
  SELECT DISTINCT user_id, epoch_us(ts) // {WEEK_US} AS w FROM events
), weeks AS (
  SELECT UNNEST(range((SELECT MIN(w) FROM uw),
                      (SELECT MAX(w) FROM uw) + 1)) AS week
)
SELECT CAST(wk.week AS BIGINT) AS week,
       CAST((SELECT COUNT(*) FROM uw a WHERE a.w = wk.week) AS BIGINT)
           AS n_active,
       CAST((SELECT COUNT(*) FROM uw a JOIN uw b
             ON b.user_id = a.user_id AND b.w = a.w + 1
             WHERE a.w = wk.week) AS BIGINT) AS n_retained
FROM weeks wk
"""


def build_queries_ext143() -> dict:
    return {
        "rotation_symmetry_audit": q_rotation_symmetry_audit,
        "wow_retention": q_wow_retention,
    }


def build_oracles_ext143() -> dict:
    return {
        "rotation_symmetry_audit": _sql_rotation_symmetry_audit(),
        "wow_retention": SQL_WOW_RETENTION,
    }
