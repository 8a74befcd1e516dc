"""Round-3 extension operators, batch 80: polygon kernel membership and
proportional quota allocation.

``star_shaped_audit`` — is the exterior ring star-shaped as seen from
its pole of inaccessibility?  The label sees every boundary point iff
it lies in the polygon KERNEL — the intersection of the edge
half-planes — so the test is one exact sign comparison per edge
(cross((b-a), (p-a)) against the ring's orientation), dyadic inputs
-> exact signs, no tolerance anywhere.  Exterior ring only (a region
with holes has an empty kernel w.r.t. its full boundary by
construction).  Output: the half-plane violation count and the flag.

``nation_quota_allocation`` — largest-remainder (Hamilton)
apportionment: K slots distributed over nations proportional to their
customer counts — floor(K * n_i / N) each, the leftover slots to the
largest remainders (ties: smaller nationkey first).  Apportionment is
pure integer arithmetic, so the oracle replays it with one window
rank over remainders; the count side folds through the bounded
nation aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

QUOTA_SLOTS = 100


# --------------------------------------------------------------------------
# star_shaped_audit
# --------------------------------------------------------------------------


def _kernel_violations(ext: np.ndarray, px: float, py: float) -> int:
    """Number of exterior edges whose half-plane excludes (px, py);
    0 <=> the point is in the polygon kernel (star-shaped from there).
    Orientation-aware: CCW requires left-of-edge, CW right-of-edge."""
    pts = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    x, y = pts[:, 0], pts[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    area2 = float(np.sum(x * y1 - x1 * y))
    cross = (x1 - x) * (py - y) - (y1 - y) * (px - x)
    if area2 >= 0.0:  # CCW (or degenerate): inside = left
        return int((cross < 0.0).sum())
    return int((cross > 0.0).sum())


def q_star_shaped_audit(sf_dir: str):
    from ..geom.kernel import polylabel_one
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        from ..sources.fixtures import FIXTURE_CYCLE, FIXTURES

        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        viol = np.empty(len(polys), dtype=np.int64)
        for i, rings in enumerate(polys):
            name = FIXTURE_CYCLE[int(doc[i]) % docs_mod.N_FIXTURES]
            fx = FIXTURES[name]
            ext = _norm_exterior(rings)
            if fx.kind == "sentinel":
                lx, ly = 0.0, 0.0
            else:
                off = rings[0].min(axis=0)
                lx, ly, *_ = polylabel_one([r - off for r in rings],
                                           fx.tolerance)
            viol[i] = _kernel_violations(ext, lx, ly)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "n_violations": pa.array(viol, type=pa.int64()),
            "is_star_from_label": pa.array(viol == 0, type=pa.bool_()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_kernel_violations(ext, px: float, py: float) -> int:
    """Oracle twin: sequential scalar half-plane scan."""
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    n = len(pts)
    area2 = 0.0
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        area2 += x0 * y1 - x1 * y0
    bad = 0
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if area2 >= 0.0:
            bad += 1 if cr < 0.0 else 0
        else:
            bad += 1 if cr > 0.0 else 0
    return bad


def _sql_star_shaped_audit() -> str:
    from ..geom.kernel import polylabel_one
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cv, cs = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        fx = FIXTURES[name]
        rings = [np.asarray(r, dtype=np.float64) for r in fx.rings]
        ext = _norm_exterior(rings)
        if fx.kind == "sentinel":
            lx, ly = 0.0, 0.0
        else:
            off = rings[0].min(axis=0)
            lx, ly, *_ = polylabel_one([r - off for r in rings],
                                       fx.tolerance)
        v = _twin_kernel_violations(ext, lx, ly)
        cv.append(f"WHEN {f} THEN {v}")
        cs.append(f"WHEN {f} THEN {str(v == 0).upper()}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(cv)} END AS BIGINT)
                 AS n_violations,
               CASE doc_id % {n} {' '.join(cs)} END AS is_star_from_label
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# nation_quota_allocation
# --------------------------------------------------------------------------


def q_nation_quota_allocation(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    counts = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_nationkey"])
        .map_batches(
            lambda b: pa.table({
                "n_nationkey": pc.cast(b.column("c_nationkey"), pa.int64()),
            }),
            batch_format="pyarrow", zero_copy_batch=True),
        ["n_nationkey"], [("count", None, "n_customers")],
    ).to_pandas()  # bounded: 25 nations

    import pandas as pd

    nk = counts["n_nationkey"].to_numpy().astype(np.int64)
    n = counts["n_customers"].to_numpy().astype(np.int64)
    total = int(n.sum())
    base = (QUOTA_SLOTS * n) // total
    rem = QUOTA_SLOTS * n - base * total  # remainder * total (exact ints)
    leftover = QUOTA_SLOTS - int(base.sum())
    # largest remainders first; ties to the smaller nationkey
    order = np.lexsort((nk, -rem))
    extra = np.zeros(len(nk), dtype=np.int64)
    extra[order[:leftover]] = 1
    out = pd.DataFrame({
        "n_nationkey": nk,
        "n_customers": n,
        "quota": base + extra,
    }).sort_values("n_nationkey").reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SQL_NATION_QUOTA_ALLOCATION = f"""
WITH cnt AS (
  SELECT CAST(c_nationkey AS BIGINT) AS n_nationkey,
         CAST(COUNT(*) AS BIGINT) AS n_customers
  FROM customer GROUP BY c_nationkey
),
tot AS (SELECT CAST(SUM(n_customers) AS BIGINT) AS total FROM cnt),
base AS (
  SELECT c.n_nationkey, c.n_customers,
         ({QUOTA_SLOTS} * c.n_customers) // t.total AS floor_q,
         {QUOTA_SLOTS} * c.n_customers
           - (({QUOTA_SLOTS} * c.n_customers) // t.total) * t.total AS rem
  FROM cnt c, tot t
),
ranked AS (
  SELECT *,
         ROW_NUMBER() OVER (ORDER BY rem DESC, n_nationkey ASC) AS rk,
         {QUOTA_SLOTS} - (SELECT SUM(floor_q) FROM base) AS leftover
  FROM base
)
SELECT n_nationkey, n_customers,
       CAST(floor_q + CASE WHEN rk <= leftover THEN 1 ELSE 0 END AS BIGINT)
         AS quota
FROM ranked
"""


def build_queries_ext80() -> dict:
    return {
        "star_shaped_audit": q_star_shaped_audit,
        "nation_quota_allocation": q_nation_quota_allocation,
    }


def build_oracles_ext80() -> dict:
    return {
        "star_shaped_audit": _sql_star_shaped_audit(),
        "nation_quota_allocation": SQL_NATION_QUOTA_ALLOCATION,
    }
