"""Round-2 extension operators: spatial overlap joins, coverage
rasterization, hull/simplification kernels, first/last-value windows,
pairwise n-gram Jaccard, interpolated quantiles.

Same contracts as ``queries.py``: every query callable takes ``sf_dir`` and
returns a Dataset / Arrow table; oracles are written only where the Ray
value and the DuckDB value are bit-identical by construction (dyadic
translation exactness, integer-cents arithmetic, identical IEEE expression
order on both sides).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
from ..sources import docs as docs_mod
from ..sources.docs import DYADIC_CYCLE_IDX as DYADIC_IDX
from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES
from ..stages.util import group_map
from .agg import hash_exchange, hash_part, n_partitions
from .geom_ops import convex_hull, ring_area, simplify_ring


# --------------------------------------------------------------------------
# shared: per-document bbox of the dyadic rings (exact under translation)
# --------------------------------------------------------------------------


def _dyadic_rings_ds(sf_dir: str):
    """Dataset of (doc_num, rings) restricted to the dyadic fixtures —
    pruned at the source (only doc_id leaves storage; rings are
    synthesized per batch, spans never built)."""
    from .table import read_table

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def attach(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        ids = ids[np.isin(ids % docs_mod.N_FIXTURES, DYADIC_IDX)]
        return pa.table({
            "doc_num": pa.array(ids, type=pa.int64()),
            "rings": docs_mod.rings_for_doc_ids(ids),
        })

    return ds.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True)


def _row_bboxes(batch: pa.Table) -> tuple[np.ndarray, ...]:
    """Vectorized per-row bbox over the nested rings column: one
    minimum/maximum.reduceat pair over the flat coordinate buffer (no
    per-row Python loop).  Rows are contiguous in the child arrays by
    construction (docs.rings_for_doc_ids builds them that way)."""
    col = batch.column("rings")
    chunk = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    ring_off = chunk.offsets.to_numpy()
    l2 = chunk.values
    pt_off = l2.offsets.to_numpy()
    fsl = l2.values
    flat = np.frombuffer(fsl.values.buffers()[1], dtype=np.float64)
    if fsl.values.offset:
        flat = flat[fsl.values.offset :]
    coords = flat[: len(fsl) * 2].reshape(-1, 2)

    starts = pt_off[ring_off[:-1]].astype(np.int64)
    ends = pt_off[ring_off[1:]].astype(np.int64)
    if len(starts) == 0:
        e = np.empty(0, dtype=np.float64)
        return e, e, e, e
    base = starts[0]
    seg = coords[base : ends[-1]]
    idx = starts - base
    mins = np.minimum.reduceat(seg, idx, axis=0)
    maxs = np.maximum.reduceat(seg, idx, axis=0)
    return mins[:, 0], mins[:, 1], maxs[:, 0], maxs[:, 1]


def _bbox_stage(batch: pa.Table) -> pa.Table:
    bx0, by0, bx1, by1 = _row_bboxes(batch)
    return pa.table({
        "doc_num": batch.column("doc_num"),
        "bx0": pa.array(bx0, type=pa.float64()),
        "by0": pa.array(by0, type=pa.float64()),
        "bx1": pa.array(bx1, type=pa.float64()),
        "by1": pa.array(by1, type=pa.float64()),
    })


def _sql_dyadic_bbox_cte() -> str:
    """Per-doc bbox as fixture constants + integer offsets (fp-exact —
    same translation-exactness argument as the label oracle)."""
    cx0, cy0, cx1, cy1 = [], [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        pts = np.vstack(FIXTURES[name].rings)
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
        offx = f"(doc_id*{docs_mod.OFF_X_MULT})%{docs_mod.OFF_MOD}"
        offy = f"(doc_id*{docs_mod.OFF_Y_MULT})%{docs_mod.OFF_MOD}"
        cx0.append(f"WHEN {f} THEN {x0!r} + {offx}")
        cy0.append(f"WHEN {f} THEN {y0!r} + {offy}")
        cx1.append(f"WHEN {f} THEN {x1!r} + {offx}")
        cy1.append(f"WHEN {f} THEN {y1!r} + {offy}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)

    def case(cs):
        return "CASE doc_id % " + str(n) + " " + " ".join(cs) + " END"

    return f"""
        SELECT doc_id AS doc_num,
               {case(cx0)} AS bx0, {case(cy0)} AS by0,
               {case(cx1)} AS bx1, {case(cy1)} AS by1
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# bbox overlap join (rectangle-intersection spatial join)
# --------------------------------------------------------------------------


class _BboxZoneOverlap:
    """Broadcast rectangle-overlap join: doc bbox x zone rect.  The zone
    side is small (shipped inside the stage callable)."""

    def __init__(self):
        from ..stages.join import zone_table

        z = zone_table()
        self.zid = z["zone_id"]
        self.zx0, self.zy0 = z["x0"], z["y0"]
        self.zx1, self.zy1 = z["x1"], z["y1"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        bx0 = batch.column("bx0").to_numpy()
        by0 = batch.column("by0").to_numpy()
        bx1 = batch.column("bx1").to_numpy()
        by1 = batch.column("by1").to_numpy()
        m = (
            (bx0[:, None] <= self.zx1)
            & (self.zx0 <= bx1[:, None])
            & (by0[:, None] <= self.zy1)
            & (self.zy0 <= by1[:, None])
        )
        di, zi = np.nonzero(m)
        ow = np.minimum(bx1[di], self.zx1[zi]) - np.maximum(bx0[di], self.zx0[zi])
        oh = np.minimum(by1[di], self.zy1[zi]) - np.maximum(by0[di], self.zy0[zi])
        doc = batch.column("doc_num").to_numpy()[di]
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "zone_id": pa.array(self.zid[zi], type=pa.int64()),
            "overlap_area": pa.array(ow * oh, type=pa.float64()),
        })


def q_bbox_overlap_join(sf_dir: str):
    """Rectangle-overlap spatial join: document bbox x zone rectangles,
    emitting the exact intersection area.  Bboxes are reduced zero-copy
    from the nested rings buffers (one reduceat pair per batch); the
    small zone side is broadcast."""
    ds = _dyadic_rings_ds(sf_dir).map_batches(
        _bbox_stage, batch_format="pyarrow", zero_copy_batch=True
    )
    return ds.map_batches(
        _BboxZoneOverlap(), batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_bbox_overlap_join() -> str:
    from .queries import sql_zone_values

    return f"""
        WITH boxes AS ({_sql_dyadic_bbox_cte()})
        SELECT doc_num, zone_id,
               (LEAST(bx1, zx1) - GREATEST(bx0, zx0))
             * (LEAST(by1, zy1) - GREATEST(by0, zy0)) AS overlap_area
        FROM boxes, {sql_zone_values()}
        WHERE bx0 <= zx1 AND zx0 <= bx1 AND by0 <= zy1 AND zy0 <= by1
    """


# --------------------------------------------------------------------------
# nearest zone (argmin-distance spatial assignment)
# --------------------------------------------------------------------------


class _NearestZone:
    def __init__(self):
        from ..stages.join import zone_table

        z = zone_table()
        self.zid = z["zone_id"]
        self.cx = (z["x0"] + z["x1"]) / 2.0
        self.cy = (z["y0"] + z["y1"]) / 2.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        lx = batch.column("label_x").to_numpy()
        ly = batch.column("label_y").to_numpy()
        dx = lx[:, None] - self.cx
        dy = ly[:, None] - self.cy
        d2 = dx * dx + dy * dy
        j = np.argmin(d2, axis=1)  # first min == lowest zone_id (ids sorted)
        return pa.table({
            "doc_num": batch.column("doc_num"),
            "zone_id": pa.array(self.zid[j], type=pa.int64()),
            "dist2": pa.array(d2[np.arange(len(j)), j], type=pa.float64()),
        })


def q_nearest_zone(sf_dir: str):
    """Nearest-zone assignment: for each label point, the argmin
    squared-distance zone center (ties -> lowest zone_id).  Broadcast
    centers, per-batch vectorized argmin."""
    from .queries import _dyadic_labeled

    return _dyadic_labeled(sf_dir).map_batches(
        _NearestZone(), batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_nearest_zone() -> str:
    from .queries import sql_zone_values

    from .queries import _sql_dyadic_labels_cte

    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        zc AS (SELECT zone_id, (zx0 + zx1)/2 AS cx, (zy0 + zy1)/2 AS cy
               FROM {sql_zone_values()}),
        scored AS (
            SELECT l.doc_num, z.zone_id,
                   (l.label_x - z.cx)*(l.label_x - z.cx)
                 + (l.label_y - z.cy)*(l.label_y - z.cy) AS dist2
            FROM labels l CROSS JOIN zc z
        ),
        ranked AS (
            SELECT doc_num, zone_id, dist2,
                   ROW_NUMBER() OVER (PARTITION BY doc_num
                                      ORDER BY dist2, zone_id) AS rn
            FROM scored
        )
        SELECT doc_num, zone_id, dist2 FROM ranked WHERE rn = 1
    """


# --------------------------------------------------------------------------
# tile coverage rasterization (one-to-many spatial explode)
# --------------------------------------------------------------------------

_TILE_SIZE = WORLD_SIZE / (1 << DEFAULT_TILE_RES)  # power-of-two: exact


def _coverage_stage(batch: pa.Table) -> pa.Table:
    from ..stages.cells import encode_cells

    bx0 = batch.column("bx0").to_numpy()
    by0 = batch.column("by0").to_numpy()
    bx1 = batch.column("bx1").to_numpy()
    by1 = batch.column("by1").to_numpy()
    doc = batch.column("doc_num").to_numpy()

    s = _TILE_SIZE
    ix0 = np.floor((bx0 - WORLD_MIN) / s).astype(np.int64)
    ix1 = np.floor((bx1 - WORLD_MIN) / s).astype(np.int64)
    iy0 = np.floor((by0 - WORLD_MIN) / s).astype(np.int64)
    iy1 = np.floor((by1 - WORLD_MIN) / s).astype(np.int64)

    nx = ix1 - ix0 + 1
    ny = iy1 - iy0 + 1
    cnt = nx * ny
    total = int(cnt.sum())
    if total == 0:
        return pa.table({
            "doc_num": pa.array([], type=pa.int64()),
            "tile_id": pa.array([], type=pa.int64()),
            "cov_area": pa.array([], type=pa.float64()),
        })
    rows = np.repeat(np.arange(len(doc), dtype=np.int64), cnt)
    # local tile index within each doc's (nx x ny) cover, x-major
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    ix = ix0[rows] + local // ny[rows]
    iy = iy0[rows] + local % ny[rows]
    tx0 = WORLD_MIN + ix * s
    ty0 = WORLD_MIN + iy * s
    ow = np.minimum(bx1[rows], tx0 + s) - np.maximum(bx0[rows], tx0)
    oh = np.minimum(by1[rows], ty0 + s) - np.maximum(by0[rows], ty0)
    return pa.table({
        "doc_num": pa.array(doc[rows], type=pa.int64()),
        "tile_id": pa.array(encode_cells(ix, iy, DEFAULT_TILE_RES), type=pa.int64()),
        "cov_area": pa.array(ow * oh, type=pa.float64()),
    })


def q_doc_tile_coverage(sf_dir: str):
    """Coverage rasterization: each document bbox exploded onto the tiles
    it covers with the exact per-tile intersection area — the one-to-many
    spatial flat-map (repeat/arange fan-out, no Python loop).  Per-doc
    output is O(covered tiles); coarser/finer rasters reuse the same stage
    at a different resolution."""
    return _dyadic_rings_ds(sf_dir).map_batches(
        _bbox_stage, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(_coverage_stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_doc_tile_coverage() -> str:
    from .queries import sql_morton_expr

    n = 1 << DEFAULT_TILE_RES
    s = _TILE_SIZE
    tid = sql_morton_expr("gx.ix", "gy.iy", DEFAULT_TILE_RES)
    return f"""
        WITH boxes AS ({_sql_dyadic_bbox_cte()})
        SELECT doc_num, {tid} AS tile_id,
               (LEAST(bx1, {WORLD_MIN!r} + (gx.ix + 1) * {s!r})
                  - GREATEST(bx0, {WORLD_MIN!r} + gx.ix * {s!r}))
             * (LEAST(by1, {WORLD_MIN!r} + (gy.iy + 1) * {s!r})
                  - GREATEST(by0, {WORLD_MIN!r} + gy.iy * {s!r})) AS cov_area
        FROM boxes,
             generate_series(0, {n - 1}) AS gx(ix),
             generate_series(0, {n - 1}) AS gy(iy)
        WHERE gx.ix BETWEEN CAST(FLOOR((bx0 - {WORLD_MIN!r})/{s!r}) AS BIGINT)
                        AND CAST(FLOOR((bx1 - {WORLD_MIN!r})/{s!r}) AS BIGINT)
          AND gy.iy BETWEEN CAST(FLOOR((by0 - {WORLD_MIN!r})/{s!r}) AS BIGINT)
                        AND CAST(FLOOR((by1 - {WORLD_MIN!r})/{s!r}) AS BIGINT)
    """


# --------------------------------------------------------------------------
# convex hull / Douglas-Peucker stats (per-polygon geometry kernels)
# --------------------------------------------------------------------------

SIMPLIFY_EPS = 0.25


def _norm_exterior(rings) -> np.ndarray:
    """Exterior ring normalized to its own bbox.min — for dyadic fixtures
    translated by integer offsets the subtraction is fp-exact, so the
    normalized ring is bit-identical across documents of one fixture."""
    ext = rings[0]
    return ext - ext.min(axis=0)


def _hull_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    hn = np.empty(len(polys), dtype=np.int64)
    ha = np.empty(len(polys), dtype=np.float64)
    for i, rings in enumerate(polys):
        h = convex_hull(_norm_exterior(rings))
        hn[i] = len(h)
        ha[i] = ring_area(h)
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "hull_n": pa.array(hn, type=pa.int64()),
        "hull_area": pa.array(ha, type=pa.float64()),
    })


def q_hull_stats(sf_dir: str):
    """Convex hull (Andrew monotone chain) of each exterior ring,
    bbox-normalized; emits hull vertex count + hull area.  Per-polygon
    kernel inside map_batches, same execution shape as the label kernel."""
    return _dyadic_rings_ds(sf_dir).map_batches(
        _hull_stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_hull_stats() -> str:
    cases_n, cases_a = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        h = convex_hull(_norm_exterior(FIXTURES[name].rings))
        cases_n.append(f"WHEN {f} THEN {len(h)}")
        cases_a.append(f"WHEN {f} THEN {ring_area(h)!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(cases_n)} END AS BIGINT) AS hull_n,
               CASE doc_id % {n} {' '.join(cases_a)} END AS hull_area
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def _simplify_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    nb = np.empty(len(polys), dtype=np.int64)
    na = np.empty(len(polys), dtype=np.int64)
    sa = np.empty(len(polys), dtype=np.float64)
    for i, rings in enumerate(polys):
        ext = _norm_exterior(rings)
        simp = simplify_ring(ext, SIMPLIFY_EPS)
        nb[i] = len(ext)
        na[i] = len(simp)
        sa[i] = ring_area(simp)
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "n_before": pa.array(nb, type=pa.int64()),
        "n_after": pa.array(na, type=pa.int64()),
        "simp_area": pa.array(sa, type=pa.float64()),
    })


def q_simplify_stats(sf_dir: str):
    """Douglas-Peucker simplification (eps=0.25) of each exterior ring,
    bbox-normalized; emits before/after vertex counts and the simplified
    shoelace area."""
    return _dyadic_rings_ds(sf_dir).map_batches(
        _simplify_stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_simplify_stats() -> str:
    cb, ca, cs = [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(FIXTURES[name].rings)
        simp = simplify_ring(ext, SIMPLIFY_EPS)
        cb.append(f"WHEN {f} THEN {len(ext)}")
        ca.append(f"WHEN {f} THEN {len(simp)}")
        cs.append(f"WHEN {f} THEN {ring_area(simp)!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(cb)} END AS BIGINT) AS n_before,
               CAST(CASE doc_id % {n} {' '.join(ca)} END AS BIGINT) AS n_after,
               CASE doc_id % {n} {' '.join(cs)} END AS simp_area
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# first/last value per key (distributed FIRST_VALUE / LAST_VALUE)
# --------------------------------------------------------------------------


def q_user_first_last(sf_dir: str, n_parts: int | None = None):
    """First and last event type per user by (ts, event_id) order — the
    distributed FIRST_VALUE/LAST_VALUE window.  Map-side combine: each
    block reduces to one candidate row per user (lexsort + segment
    boundaries), the shuffle carries O(users x blocks) candidate rows, and
    each hash partition finishes its users with the same segment sweep —
    no per-user task, no global sort."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def partials(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        et = batch.column("event_type").to_pandas().to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, et = uid[order], ts[order], eid[order], et[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        ends = np.r_[starts[1:], len(uid)]
        lasts = ends - 1
        return pa.table({
            "user_id": pa.array(uid[starts], type=pa.int64()),
            "f_ts": pa.array(ts[starts], type=pa.int64()),
            "f_eid": pa.array(eid[starts], type=pa.int64()),
            "f_type": pa.array(et[starts], type=pa.string()),
            "l_ts": pa.array(ts[lasts], type=pa.int64()),
            "l_eid": pa.array(eid[lasts], type=pa.int64()),
            "l_type": pa.array(et[lasts], type=pa.string()),
            "n": pa.array(ends - starts, type=pa.int64()),
        })

    def finish(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        f_ts = group.column("f_ts").to_numpy()
        f_eid = group.column("f_eid").to_numpy()
        f_type = group.column("f_type").to_pandas().to_numpy()
        l_ts = group.column("l_ts").to_numpy()
        l_eid = group.column("l_eid").to_numpy()
        l_type = group.column("l_type").to_pandas().to_numpy()
        n = group.column("n").to_numpy()

        of = np.lexsort((f_eid, f_ts, uid))
        sf = np.flatnonzero(np.r_[True, uid[of][1:] != uid[of][:-1]])
        first_rows = of[sf]  # argmin (f_ts, f_eid) per user

        ol = np.lexsort((l_eid, l_ts, uid))
        sl = np.flatnonzero(np.r_[True, uid[ol][1:] != uid[ol][:-1]])
        el = np.r_[sl[1:], len(uid)]
        last_rows = ol[el - 1]  # argmax (l_ts, l_eid) per user

        # users is sorted (first_rows follows the uid-major lexsort order),
        # so the per-user partial-count sum is one searchsorted + bincount
        users = uid[first_rows]
        n_tot = np.bincount(
            np.searchsorted(users, uid), weights=n, minlength=len(users)
        ).astype(np.int64)
        return pa.table({
            "user_id": pa.array(users, type=pa.int64()),
            "first_event_type": pa.array(f_type[first_rows], type=pa.string()),
            "last_event_type": pa.array(l_type[last_rows], type=pa.string()),
            "first_ts_us": pa.array(f_ts[first_rows], type=pa.int64()),
            "last_ts_us": pa.array(l_ts[last_rows], type=pa.int64()),
            "n_events": pa.array(n_tot, type=pa.int64()),
        })

    return hash_exchange(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", finish, n_parts,
    )


SQL_USER_FIRST_LAST = """
    WITH e AS (
        SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us, event_id,
               event_type
        FROM events
    ),
    r AS (
        SELECT *,
               ROW_NUMBER() OVER (PARTITION BY user_id
                                  ORDER BY ts_us, event_id) AS rn,
               COUNT(*) OVER (PARTITION BY user_id) AS cnt
        FROM e
    )
    SELECT user_id,
           MIN(CASE WHEN rn = 1 THEN event_type END) AS first_event_type,
           MIN(CASE WHEN rn = cnt THEN event_type END) AS last_event_type,
           CAST(MIN(ts_us) AS BIGINT) AS first_ts_us,
           CAST(MAX(ts_us) AS BIGINT) AS last_ts_us,
           CAST(COUNT(*) AS BIGINT) AS n_events
    FROM r GROUP BY user_id
"""


# --------------------------------------------------------------------------
# pairwise n-gram Jaccard (co-partitioned text-similarity join)
# --------------------------------------------------------------------------


def q_ngram_jaccard_pairs(sf_dir: str, n_parts: int | None = None):
    """Exact word-trigram Jaccard similarity for each (2i, 2i+1) document
    pair — the verification kernel of the MinHash path as a standalone
    oracle-backed operator.  Pairs co-partition by hash(pair_id) so both
    texts of a pair land in one partition; within a partition the shingle
    sets are dictionary-encoded once and all set sizes/intersections come
    from two np.unique passes over integer keys (no per-pair Python set
    work)."""
    import ray
    P = n_partitions(n_parts)
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def to_parts(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "part": pa.array(hash_part(did // 2, P), type=pa.int64()),
            "doc_id": pa.array(did, type=pa.int64()),
            "text": batch.column("text"),
        })

    def pair_jaccard(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy().astype(np.int64)
        texts = group.column("text").to_pylist()

        grams: list[str] = []
        owner: list[int] = []
        for i, t in enumerate(texts):
            toks = (t or "").split()
            gs = [f"{a} {b} {c}" for a, b, c in zip(toks, toks[1:], toks[2:])]
            grams.extend(gs)
            owner.extend([i] * len(gs))

        n_docs = len(ids)
        n_distinct = np.zeros(n_docs, dtype=np.int64)
        inter_pids = np.empty(0, dtype=np.int64)
        inter_cnts = np.empty(0, dtype=np.int64)
        if grams:
            dic = pa.array(grams, type=pa.string()).dictionary_encode()
            codes = dic.indices.to_numpy().astype(np.int64)
            own = np.asarray(owner, dtype=np.int64)
            V = np.int64(len(dic.dictionary))
            dkey = np.unique(own * V + codes)  # distinct (doc, gram)
            down = (dkey // V).astype(np.int64)
            np.add.at(n_distinct, down, 1)
            # same gram under both pair members -> (pair, gram) key twice
            pkey = (ids[down] // 2) * V + dkey % V
            upair, cnts = np.unique(pkey, return_counts=True)
            inter_pids, inter_cnts = np.unique(
                upair[cnts == 2] // V, return_counts=True
            )

        # complete pairs present in this partition (both members exist)
        order = np.argsort(ids, kind="stable")
        sid = ids[order]
        is_even = sid % 2 == 0
        nxt = np.searchsorted(sid, sid + 1)
        has_sib = is_even & (nxt < len(sid))
        has_sib[has_sib] &= sid[nxt[has_sib]] == sid[has_sib] + 1
        ia = order[has_sib]
        ib = order[nxt[has_sib]]
        pids = ids[ia] // 2
        hit = np.searchsorted(inter_pids, pids)
        hit_c = np.minimum(hit, max(len(inter_pids) - 1, 0))
        found = (
            (inter_pids[hit_c] == pids) if len(inter_pids) else np.zeros(len(pids), bool)
        )
        n_inter = np.where(found, inter_cnts[hit_c] if len(inter_cnts) else 0, 0).astype(np.int64)
        n_union = n_distinct[ia] + n_distinct[ib] - n_inter
        jac = np.where(
            n_union > 0, n_inter / np.maximum(n_union, 1), 0.0
        )
        return pa.table({
            "doc_a": pa.array(ids[ia], type=pa.int64()),
            "doc_b": pa.array(ids[ib], type=pa.int64()),
            "n_inter": pa.array(n_inter, type=pa.int64()),
            "n_union": pa.array(n_union, type=pa.int64()),
            "jaccard": pa.array(jac, type=pa.float64()),
        })

    return group_map(
        ds.map_batches(to_parts, batch_format="pyarrow", zero_copy_batch=True),
        "part", pair_jaccard,
    )


SQL_NGRAM_JACCARD_PAIRS = r"""
    WITH toks AS (
        SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
    ),
    tri AS (
        SELECT doc_id, t[i] || ' ' || t[i + 1] || ' ' || t[i + 2] AS g
        FROM toks, LATERAL (SELECT unnest(generate_series(1, len(t) - 2)) AS i)
    ),
    d AS (SELECT DISTINCT doc_id, g FROM tri),
    cnts AS (SELECT doc_id, COUNT(*) AS n FROM d GROUP BY doc_id),
    pairs AS (
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
        FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 1
        WHERE a.doc_id % 2 = 0
    ),
    inter AS (
        SELECT p.doc_a, COUNT(*) AS n_inter
        FROM pairs p
        JOIN d x ON x.doc_id = p.doc_a
        JOIN d y ON y.doc_id = p.doc_b AND y.g = x.g
        GROUP BY p.doc_a
    )
    SELECT p.doc_a, p.doc_b,
           CAST(COALESCE(i.n_inter, 0) AS BIGINT) AS n_inter,
           CAST(COALESCE(ca.n, 0) + COALESCE(cb.n, 0)
                - COALESCE(i.n_inter, 0) AS BIGINT) AS n_union,
           CASE WHEN COALESCE(ca.n, 0) + COALESCE(cb.n, 0)
                     - COALESCE(i.n_inter, 0) = 0 THEN 0.0
                ELSE CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
                   / CAST(COALESCE(ca.n, 0) + COALESCE(cb.n, 0)
                          - COALESCE(i.n_inter, 0) AS DOUBLE)
           END AS jaccard
    FROM pairs p
    LEFT JOIN inter i ON i.doc_a = p.doc_a
    LEFT JOIN cnts ca ON ca.doc_id = p.doc_a
    LEFT JOIN cnts cb ON cb.doc_id = p.doc_b
"""


# --------------------------------------------------------------------------
# interpolated quantiles (percentile_cont semantics, exact integer space)
# --------------------------------------------------------------------------

CONT_QS = [(0.25, 1, 4), (0.50, 1, 2), (0.90, 9, 10)]  # (q, q_num, q_den)


def q_value_quantiles_cont(sf_dir: str):
    """EXACT interpolated quantiles (percentile_cont semantics) without a
    global sort: the fractional rank q*(n-1) is computed in integer
    arithmetic (numerator/denominator), the two bracketing order statistics
    are selected via the distributed histogram-selection pass (the same
    machinery as value_quantiles), and the interpolated value is emitted as
    an exact integer numerator over q_den (lo*(den-rem) + hi*rem, in cents)
    — no float interpolation anywhere, so the oracle matches bit-for-bit."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def cents(batch: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64())
        return pa.table({"c": c})

    dc = ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)

    def stats_batch(batch: pa.Table) -> pa.Table:
        v = batch.column("c").to_numpy()
        return pa.table({
            "n": pa.array([len(v)], type=pa.int64()),
            "lo": pa.array([int(v.min()) if len(v) else 2**62], type=pa.int64()),
            "hi": pa.array([int(v.max()) if len(v) else -(2**62)], type=pa.int64()),
        })

    st = dc.map_batches(stats_batch, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    n = int(st["n"].sum())
    lo_all = int(st["lo"].min())
    hi_all = int(st["hi"].max())

    ranks = []
    for _, qn, qd in CONT_QS:
        idx = qn * (n - 1)
        lo_k = idx // qd
        ranks += [lo_k, min(lo_k + 1, n - 1)]
    ranks = sorted(set(ranks))
    vals = _exact_rank_select(dc, ranks, n, lo_all, hi_all)
    at = dict(zip(ranks, vals))

    q_out, loc, hic, inum, iden = [], [], [], [], []
    for q, qn, qd in CONT_QS:
        idx = qn * (n - 1)
        lo_k, rem = idx // qd, idx % qd
        hi_k = min(lo_k + 1, n - 1)
        lo_c, hi_c = at[lo_k], at[hi_k]
        q_out.append(q)
        loc.append(lo_c)
        hic.append(hi_c)
        inum.append(lo_c * (qd - rem) + hi_c * rem)
        iden.append(qd)
    return pa.table({
        "q": pa.array(q_out, type=pa.float64()),
        "lo_cents": pa.array(loc, type=pa.int64()),
        "hi_cents": pa.array(hic, type=pa.int64()),
        "interp_num": pa.array(inum, type=pa.int64()),
        "interp_den": pa.array(iden, type=pa.int64()),
    })


def _exact_rank_select(dc, ranks: list[int], n: int, lo: int, hi: int) -> list[int]:
    """Elements at the given 0-indexed global ranks of the int column ``c``:
    one histogram pass (O(batches) driver rows) + one filtered pass over
    only the bins holding target ranks (expected n/4096 rows per bin)."""
    if n == 0:
        return [0 for _ in ranks]
    if lo == hi:
        return [lo for _ in ranks]
    B = 4096
    scale = B / float(hi - lo)

    def bin_of(v: np.ndarray) -> np.ndarray:
        return np.minimum(((v - lo) * scale).astype(np.int64), B - 1)

    def hist_batch(batch: pa.Table) -> pa.Table:
        v = batch.column("c").to_numpy()
        h = np.bincount(bin_of(v), minlength=B)
        return pa.table({"hist": pa.array([h], type=pa.list_(pa.int64()))})

    parts = dc.map_batches(hist_batch, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    hist = np.zeros(B, dtype=np.int64)
    for row in parts["hist"]:
        hist += np.asarray(row, dtype=np.int64)
    cum = np.concatenate([[0], np.cumsum(hist)])
    tb = np.asarray(
        sorted({int(np.searchsorted(cum, k, side="right") - 1) for k in ranks}),
        dtype=np.int64,
    )

    def pick_bins(batch: pa.Table) -> pa.Table:
        v = batch.column("c").to_numpy()
        m = np.isin(bin_of(v), tb)
        kept = v[m]
        return pa.table({
            "c": pa.array(kept, type=pa.int64()),
            "bin": pa.array(bin_of(kept), type=pa.int64()),
        })

    got = dc.map_batches(pick_bins, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    out = []
    for k in ranks:
        b = int(np.searchsorted(cum, k, side="right") - 1)
        vals = np.sort(got.loc[got["bin"] == b, "c"].to_numpy())
        out.append(int(vals[k - cum[b]]))
    return out


def _sql_value_quantiles_cont() -> str:
    vals = ", ".join(f"({q!r}, {qn}, {qd})" for q, qn, qd in CONT_QS)
    return f"""
        WITH v AS (SELECT CAST(ROUND(value*100) AS BIGINT) AS c FROM events),
        nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS cnt FROM v),
        r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) - 1 AS rk FROM v),
        qs(q, qn, qd) AS (VALUES {vals}),
        k AS (
            SELECT CAST(q AS DOUBLE) AS q, qn, qd,
                   (qn*(cnt-1))//qd AS lo_k,
                   (qn*(cnt-1))%qd AS rem,
                   LEAST((qn*(cnt-1))//qd + 1, cnt-1) AS hi_k
            FROM qs, nn
        )
        SELECT k.q,
               CAST(lo.c AS BIGINT) AS lo_cents,
               CAST(hi.c AS BIGINT) AS hi_cents,
               CAST(lo.c*(k.qd - k.rem) + hi.c*k.rem AS BIGINT) AS interp_num,
               CAST(k.qd AS BIGINT) AS interp_den
        FROM k
        JOIN r lo ON lo.rk = k.lo_k
        JOIN r hi ON hi.rk = k.hi_k
    """


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def build_queries_ext() -> dict:
    return {
        "bbox_overlap_join": q_bbox_overlap_join,
        "nearest_zone": q_nearest_zone,
        "doc_tile_coverage": q_doc_tile_coverage,
        "hull_stats": q_hull_stats,
        "simplify_stats": q_simplify_stats,
        "user_first_last": q_user_first_last,
        "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
        "value_quantiles_cont": q_value_quantiles_cont,
    }


def build_oracles_ext() -> dict:
    return {
        "bbox_overlap_join": _sql_bbox_overlap_join(),
        "nearest_zone": _sql_nearest_zone(),
        "doc_tile_coverage": _sql_doc_tile_coverage(),
        "hull_stats": _sql_hull_stats(),
        "simplify_stats": _sql_simplify_stats(),
        "user_first_last": SQL_USER_FIRST_LAST,
        "ngram_jaccard_pairs": SQL_NGRAM_JACCARD_PAIRS,
        "value_quantiles_cont": _sql_value_quantiles_cont(),
    }
