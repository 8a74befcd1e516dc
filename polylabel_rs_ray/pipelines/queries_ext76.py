"""Round-3 extension operators, batch 76: STR bulk-load packing and
label clearance.

``str_pack_audit`` — Sort-Tile-Recursive bulk loading (the classic
R-tree packing): label points sort by x into vertical strips of
``ceil(sqrt(n/B))`` columns, each strip sorts by y and packs into
nodes of capacity B; the audit reports every node's bbox and fill.
Deterministic via (x, doc_num) / (y, doc_num) tie-breaks, so the SQL
oracle replays the exact same packing with two ROW_NUMBER layers —
the spatial-index BUILD step itself is oracle-pinned.  The engine
computes the packing on the bounded label table (dyadic docs are
dim-scale); at corpus scale the same two-level sort is a range
exchange + per-strip local sort.

``label_clearance`` — map-labeling quality: the exact squared
distance from each label point to its polygon boundary (how much
clear space the label has).  Point-to-segment distances use one
shared formula; the oracle constants come from an independent
sequential twin; per-fixture constants hold because labels and rings
translate together (both normalize to the ring's bbox.min).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

STR_NODE_CAP = 16


# --------------------------------------------------------------------------
# str_pack_audit
# --------------------------------------------------------------------------


def q_str_pack_audit(sf_dir: str):
    from .queries import _dyadic_labeled

    # the label table is dim-scale here; the two-level sort is exactly the
    # STR recipe (at corpus scale: range-partition on x, local sort on y)
    pts = _dyadic_labeled(sf_dir).to_pandas()
    import math

    n = len(pts)
    b = STR_NODE_CAP
    n_strips = max(1, math.ceil(math.sqrt(n / b)))
    strip_cap = math.ceil(n / n_strips)

    pts = pts.sort_values(["label_x", "doc_num"]).reset_index(drop=True)
    pts["strip"] = (np.arange(n) // strip_cap).astype(np.int64)
    pts = pts.sort_values(["strip", "label_y", "doc_num"]).reset_index(
        drop=True)
    pts["slot"] = pts.groupby("strip").cumcount()
    pts["node_id"] = pts["strip"] * ((strip_cap + b - 1) // b) \
        + pts["slot"] // b

    agg = pts.groupby("node_id").agg(
        n_points=("doc_num", "size"),
        x_min=("label_x", "min"), x_max=("label_x", "max"),
        y_min=("label_y", "min"), y_max=("label_y", "max"),
    ).reset_index()
    agg["node_id"] = agg["node_id"].astype("int64")
    agg["n_points"] = agg["n_points"].astype("int64")
    return agg[["node_id", "n_points", "x_min", "x_max", "y_min", "y_max"]]


def _sql_str_pack_audit() -> str:
    from .queries import _sql_dyadic_labels_cte

    b = STR_NODE_CAP
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        n AS (SELECT COUNT(*) AS cnt FROM labels),
        params AS (
          SELECT cnt,
                 GREATEST(1, CAST(CEIL(SQRT(cnt * 1.0 / {b})) AS BIGINT))
                   AS n_strips
          FROM n
        ),
        p2 AS (
          SELECT cnt, n_strips,
                 CAST(CEIL(cnt * 1.0 / n_strips) AS BIGINT) AS strip_cap
          FROM params
        ),
        xs AS (
          SELECT doc_num, label_x, label_y,
                 ROW_NUMBER() OVER (ORDER BY label_x, doc_num) - 1 AS xr
          FROM labels
        ),
        striped AS (
          SELECT xs.*, xs.xr // p2.strip_cap AS strip, p2.strip_cap
          FROM xs, p2
        ),
        slotted AS (
          SELECT strip, strip_cap, label_x, label_y,
                 ROW_NUMBER() OVER (PARTITION BY strip
                                    ORDER BY label_y, doc_num) - 1 AS slot
          FROM striped
        ),
        noded AS (
          SELECT strip * ((strip_cap + {b} - 1) // {b}) + slot // {b}
                   AS node_id,
                 label_x, label_y
          FROM slotted
        )
        SELECT CAST(node_id AS BIGINT) AS node_id,
               CAST(COUNT(*) AS BIGINT) AS n_points,
               MIN(label_x) AS x_min, MAX(label_x) AS x_max,
               MIN(label_y) AS y_min, MAX(label_y) AS y_max
        FROM noded GROUP BY node_id
    """


# --------------------------------------------------------------------------
# label_clearance
# --------------------------------------------------------------------------


def _seg_dist_sq(px, py, ax, ay, bx, by):
    """Shared point-to-segment squared-distance formula (scalar)."""
    dx = bx - ax
    dy = by - ay
    ll = dx * dx + dy * dy
    if ll == 0.0:
        ex = px - ax
        ey = py - ay
        return ex * ex + ey * ey
    t = ((px - ax) * dx + (py - ay) * dy) / ll
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = ax + t * dx
    cy = ay + t * dy
    ex = px - cx
    ey = py - cy
    return ex * ex + ey * ey


def _clearance_sq(rings, label_xy) -> float:
    """Minimum squared distance from the label to ANY ring segment,
    sequential over segments (deterministic min order)."""
    px, py = float(label_xy[0]), float(label_xy[1])
    best = float("inf")
    for ring in rings:
        pts = ring
        m = len(pts)
        for i in range(m - 1):
            d = _seg_dist_sq(px, py, float(pts[i][0]), float(pts[i][1]),
                             float(pts[i + 1][0]), float(pts[i + 1][1]))
            if d < best:
                best = d
        # close the ring if not closed
        if not (pts[0][0] == pts[-1][0] and pts[0][1] == pts[-1][1]):
            d = _seg_dist_sq(px, py, float(pts[-1][0]), float(pts[-1][1]),
                             float(pts[0][0]), float(pts[0][1]))
            if d < best:
                best = d
    return best


def q_label_clearance(sf_dir: str):
    from ..geom.kernel import polylabel_one
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds

    def stage(batch: pa.Table) -> pa.Table:
        from ..sources.fixtures import FIXTURE_CYCLE, FIXTURES

        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        out = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            name = FIXTURE_CYCLE[int(doc[i]) % docs_mod.N_FIXTURES]
            fx = FIXTURES[name]
            off = rings[0].min(axis=0)
            rings_n = [r - off for r in rings]
            if fx.kind == "sentinel":
                lx, ly = 0.0, 0.0
            else:
                lx, ly, *_ = polylabel_one(rings_n, fx.tolerance)
            out[i] = _clearance_sq(rings_n, (lx, ly))
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "clearance_sq": pa.array(out, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_clearance(rings, label_xy) -> float:
    """Oracle twin: same shared segment formula, independently-written
    iteration (reversed segment order exercises min-order independence)."""
    px, py = float(label_xy[0]), float(label_xy[1])
    dists = []
    for ring in rings:
        pts = [(float(x), float(y)) for x, y in ring]
        if pts[0] != pts[-1]:
            pts = pts + [pts[0]]
        for i in reversed(range(len(pts) - 1)):
            dists.append(_seg_dist_sq(px, py, pts[i][0], pts[i][1],
                                      pts[i + 1][0], pts[i + 1][1]))
    return min(dists)


def _sql_label_clearance() -> str:
    from ..geom.kernel import polylabel_one
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX

    cases = []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        fx = FIXTURES[name]
        rings = [np.asarray(r, dtype=np.float64) for r in fx.rings]
        off = rings[0].min(axis=0)
        rings = [r - off for r in rings]
        if fx.kind == "sentinel":
            lx, ly = 0.0, 0.0
        else:
            lx, ly, *_ = polylabel_one(rings, fx.tolerance)
        c = _twin_clearance(rings, (lx, ly))
        cases.append(f"WHEN {f} THEN {c!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cases)} END AS clearance_sq
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext76() -> dict:
    return {
        "str_pack_audit": q_str_pack_audit,
        "label_clearance": q_label_clearance,
    }


def build_oracles_ext76() -> dict:
    return {
        "str_pack_audit": _sql_str_pack_audit(),
        "label_clearance": _sql_label_clearance(),
    }
