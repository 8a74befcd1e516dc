"""Round-3 extension operators, batch 71: partitioner introspection and
label-placement quality.

``partition_skew_audit`` — the engine auditing itself: the SAME
splitmix hash every co-partitioned stage uses (``(u * GOLD) >> 33 %
P``, pipelines/agg.py::hash_part) is replayed over events.user_id, and the
audit reports per-partition row counts (empty partitions included)
plus the exact Gini coefficient of the partition loads as the integer
rational ``(Σ_i Σ_j |x_i - x_j|, 2 P Σx)``.  The SQL oracle replays
the 64-bit wrapping multiply in HUGEINT arithmetic — the partitioner
itself is oracle-pinned, not just the data that flows through it.

``label_centroid_offset`` — label-placement quality: the displacement
between the pole of inaccessibility (the label) and the area centroid,
per fixture.  Both points translate together under the per-doc integer
offsets, so (dx, dy, dist_sq) are per-fixture constants; the oracle
constants come from an independent sequential centroid twin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import hash_part

GOLD_INT = 0x9E3779B97F4A7C15
TWO64 = 1 << 64
AUDIT_P = 32


def q_partition_skew_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "part": pa.array(hash_part(uid, AUDIT_P), type=pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id"])
        .map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["part"], [("count", None, "n_rows")],
    ).to_pandas()  # bounded: P rows

    import pandas as pd

    x = np.zeros(AUDIT_P, dtype=np.int64)
    x[hist["part"].to_numpy().astype(np.int64)] = \
        hist["n_rows"].to_numpy().astype(np.int64)
    gini_num = int(np.abs(x[:, None] - x[None, :]).sum())
    gini_den = 2 * AUDIT_P * int(x.sum())
    return pd.DataFrame({
        "part": np.arange(AUDIT_P, dtype=np.int64),
        "n_rows": x,
        "gini_num": np.int64(gini_num),
        "gini_den": np.int64(gini_den),
    })


SQL_PARTITION_SKEW_AUDIT = f"""
WITH h AS (
  SELECT CAST(((CAST(user_id AS HUGEINT) * {GOLD_INT}) % {TWO64})
              // {1 << 33} % {AUDIT_P} AS BIGINT) AS part
  FROM events
),
cnt AS (SELECT part, CAST(COUNT(*) AS BIGINT) AS n FROM h GROUP BY part),
grid AS (
  SELECT unnest(generate_series(0, {AUDIT_P - 1})) AS part
),
filled AS (
  SELECT g.part, COALESCE(c.n, 0) AS n_rows
  FROM grid g LEFT JOIN cnt c ON g.part = c.part
),
gini AS (
  SELECT CAST(SUM(ABS(a.n_rows - b.n_rows)) AS BIGINT) AS gn,
         CAST(2 * {AUDIT_P} * (SELECT SUM(n_rows) FROM filled) AS BIGINT)
           AS gd
  FROM filled a, filled b
)
SELECT CAST(f.part AS BIGINT) AS part, f.n_rows,
       g.gn AS gini_num, g.gd AS gini_den
FROM filled f, gini g
"""


def q_label_centroid_offset(sf_dir: str):
    from ..geom.kernel import polygon_centroid
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import DYADIC_IDX

    import ray

    # labels already exact for the dyadic set; recompute centroid per doc
    # from the same rings and difference them
    from .queries_ext import _dyadic_rings_ds

    from ..geom.kernel import polylabel_one

    def stage(batch: pa.Table) -> pa.Table:
        from ..sources.fixtures import FIXTURES, FIXTURE_CYCLE

        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        dx = np.empty(len(polys), dtype=np.float64)
        dy = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            name = FIXTURE_CYCLE[int(doc[i]) % docs_mod.N_FIXTURES]
            fx = FIXTURES[name]
            # normalize to the exterior bbox.min (exact for dyadic+integer
            # data) so label/centroid fp ops see the SAME inputs for every
            # document of one fixture — the offset is a per-fixture constant
            off = rings[0].min(axis=0)
            rings_n = [r - off for r in rings]
            if fx.kind == "sentinel":
                lx, ly = 0.0, 0.0
                cx, cy = 0.0, 0.0
            else:
                lx, ly, *_ = polylabel_one(rings_n, fx.tolerance)
                cx, cy = polygon_centroid(rings_n)
            dx[i] = lx - cx
            dy[i] = ly - cy
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "dx": pa.array(dx, type=pa.float64()),
            "dy": pa.array(dy, type=pa.float64()),
            "dist_sq": pa.array(dx * dx + dy * dy, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_centroid(rings) -> tuple[float, float]:
    """Oracle twin: sequential scalar area-weighted centroid over ALL rings
    (holes carry negative signed area), no shared code with geom.kernel."""
    sa = 0.0
    sx = 0.0
    sy = 0.0
    for ring in rings:
        pts = [(float(x), float(y)) for x, y in ring]
        if pts[0] == pts[-1]:
            pts = pts[:-1]
        n = len(pts)
        for i in range(n):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % n]
            cr = x0 * y1 - x1 * y0
            sa += cr
            sx += (x0 + x1) * cr
            sy += (y0 + y1) * cr
    if sa == 0.0:
        return 0.0, 0.0
    return sx / (3.0 * sa), sy / (3.0 * sa)


def _sql_label_centroid_offset() -> str:
    from ..geom.kernel import polylabel_one
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX

    cx_, cy_, cd_ = [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        fx = FIXTURES[name]
        rings = [np.asarray(r, dtype=np.float64) for r in fx.rings]
        off = rings[0].min(axis=0)
        rings = [r - off for r in rings]
        if fx.kind == "sentinel":
            dx = dy = 0.0
        else:
            lx, ly, *_ = polylabel_one(rings, fx.tolerance)
            cx, cy = _twin_centroid(rings)
            dx, dy = lx - cx, ly - cy
        cx_.append(f"WHEN {f} THEN {dx!r}")
        cy_.append(f"WHEN {f} THEN {dy!r}")
        cd_.append(f"WHEN {f} THEN {dx * dx + dy * dy!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cx_)} END AS dx,
               CASE doc_id % {n} {' '.join(cy_)} END AS dy,
               CASE doc_id % {n} {' '.join(cd_)} END AS dist_sq
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext71() -> dict:
    return {
        "partition_skew_audit": q_partition_skew_audit,
        "label_centroid_offset": q_label_centroid_offset,
    }


def build_oracles_ext71() -> dict:
    return {
        "partition_skew_audit": SQL_PARTITION_SKEW_AUDIT,
        "label_centroid_offset": _sql_label_centroid_offset(),
    }
