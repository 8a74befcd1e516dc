"""Query registry: every implemented operator/pipeline exposed as a
callable(sf_dir) plus (where SQL-expressible) a DuckDB oracle query.

Naming contract (driver): the Ray result and the oracle SQL must produce the
SAME column names; computed columns are explicitly aliased on both sides.

Float discipline: oracles are only written where the Ray value and the SQL
value are *bit-identical* by construction —
  * label points of dyadic fixtures: integer translation is fp-exact
    (tests/test_geom_kernel.py::test_translation_exactness_dyadic), so the
    expected label is ``fixture_constant + offset``;
  * money/value sums go through integer cents (values have exactly 2
    decimals in the test tables), making distributed sums order-free;
  * quantity sums/averages involve only integral doubles (exact in fp).
Non-SQL-expressible pipelines (full spatial join, tiles, MinHash, ...) are
registered without an oracle -> driver records rows-only checks.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pkgutil
import re
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import run
from ..config import WORLD_MIN, WORLD_SIZE
from ..geom.kernel import polylabel_one
from ..sources import docs as docs_mod
from ..sources.docs import DYADIC_CYCLE_IDX as DYADIC_IDX
from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES
from ..stages.cells import _RES_SHIFT
from ..stages.join import N_ZONES, zone_table
from ..stages.util import group_map, shuffle_blocks
from ..state.manifest import commit_dir, partition_dir
from .agg import hash_exchange, hash_part, n_partitions
from .table import document_count, table_path

REGISTRY_DIRS = run.ENGINE_DIRS + ("pipelines",)


# --------------------------------------------------------------------------
# geometry / labeling queries
# --------------------------------------------------------------------------

def _unit_dir(sf_dir: str, name: str) -> str:
    """``$TMPDIR/polylabel_ckpt/<source>/<name>``; ``<source>`` keys ``sf_dir``."""
    return os.path.join(tempfile.gettempdir(), "polylabel_ckpt",
                        hashlib.sha256(sf_dir.encode()).hexdigest()[:16], name)


def _checkpoint(sf_dir: str, name: str, inputs: list[str], write_fn) -> str:
    """Commit the registry checkpoint ``_unit_dir(sf_dir, name)`` through
    ``state.manifest.commit_dir`` and return its ``data/`` path;
    ``write_fn(path)`` writes the rows.  The manifest's fingerprint covers
    the mtime and size of each file of the ``inputs`` (paths in ``sf_dir``;
    a directory, such as a Lance dataset, stands for the files under it)
    and ``run.code_digest`` of ``REGISTRY_DIRS``, so a touched input or a
    code edit makes the next call write the unit afresh.  (The labelled
    documents are a ``run`` output instead: ``labeled_docs``.)"""
    stamps = {}
    for f in inputs:
        path = os.path.join(sf_dir, f)
        files = sorted(os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for fp in files or [path]:
            try:
                stamp = [os.path.getmtime(fp), os.path.getsize(fp)]
            except OSError:
                stamp = None
            stamps[os.path.relpath(fp, sf_dir)] = stamp
    desc = {"source": sf_dir, "inputs": stamps, "code": run.code_digest(dirs=REGISTRY_DIRS)}
    unit = _unit_dir(sf_dir, name)
    commit_dir(unit, desc, write_fn)
    return os.path.join(unit, "data")


def labeled_docs(sf_dir: str):
    """The engine's product for the documents of ``sf_dir``, read back with
    ``read_parquet`` from exactly the partition files of a ``run.run`` over
    their ids into ``_unit_dir(sf_dir, "labeled")``, one partition per
    ``LABEL_BLOCK_ROWS`` docs: every ``run`` column (labels, ``cell_id``,
    ``tile_id``; no ``rings``).  A label is a pure function of its id, so
    the table enters only through ``table.document_count``, which
    requires its ``doc_id`` column to hold exactly ``0 .. n-1``, and the
    partitions' manifests (id range, resolutions, ``code_digest()``) do
    not stamp the table: rewriting it with the same ids relabels nothing."""
    import ray

    n = document_count(sf_dir)
    unit = _unit_dir(sf_dir, "labeled")
    n_parts = -(-n // docs_mod.LABEL_BLOCK_ROWS)
    run.run(unit, n, n_parts)
    return ray.data.read_parquet(
        [os.path.join(partition_dir(unit, i), "data.parquet") for i in range(n_parts)])


def _dyadic_labeled(sf_dir: str, columns=("doc_num", "label_x", "label_y")):
    """Labeled docs filtered to the dyadic-fixture rows (exact-oracle set),
    projected to ``columns``; ``fixture_idx`` is ``doc_num % N_FIXTURES``."""
    mods = DYADIC_IDX

    def pick(batch: pa.Table) -> pa.Table:
        fixture_idx = batch.column("doc_num").to_numpy() % docs_mod.N_FIXTURES
        mask = pa.array(np.isin(fixture_idx, mods))
        out = batch.append_column(
            "fixture_idx", pa.array(fixture_idx, type=pa.int64())
        ).filter(mask)
        return out.select(list(columns))

    return labeled_docs(sf_dir).map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


# the dyadic rows with the unit's cell and tile ids
CELL_COLUMNS = ("doc_num", "label_x", "label_y", "cell_id", "tile_id")


def q_label_dyadic(sf_dir: str):
    """Label points of the dyadic fixtures: fp-exactly ``fixture + offset``."""
    return _dyadic_labeled(
        sf_dir, ("doc_num", "fixture_idx", "label_x", "label_y", "label_dist", "area"))


def _sql_label_dyadic() -> str:
    cases_x, cases_y, cases_d, cases_a = [], [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        fx = FIXTURES[name]
        x, y, d, a, _ = polylabel_one(fx.rings, fx.tolerance)
        if fx.kind == "sentinel":
            # sentinel (0,0) is absolute — not shifted (lib.rs:341-343)
            cases_x.append(f"WHEN {f} THEN 0.0")
            cases_y.append(f"WHEN {f} THEN 0.0")
        else:
            cases_x.append(f"WHEN {f} THEN {x!r} + (doc_id*{docs_mod.OFF_X_MULT})%{docs_mod.OFF_MOD}")
            cases_y.append(f"WHEN {f} THEN {y!r} + (doc_id*{docs_mod.OFF_Y_MULT})%{docs_mod.OFF_MOD}")
        cases_d.append(f"WHEN {f} THEN {d!r}")
        cases_a.append(f"WHEN {f} THEN {a!r}")
    mods = ",".join(str(m) for m in DYADIC_IDX)
    n = docs_mod.N_FIXTURES

    def case(cs):
        return "CASE doc_id % " + str(n) + " " + " ".join(cs) + " END"

    return f"""
        SELECT doc_id AS doc_num,
               doc_id % {n} AS fixture_idx,
               {case(cases_x)} AS label_x,
               {case(cases_y)} AS label_y,
               {case(cases_d)} AS label_dist,
               {case(cases_a)} AS area
        FROM documents
        WHERE doc_id % {n} IN ({mods})
    """


COARSE_RES = 4  # 16x16 world grid -> 256-unit spatial partitions
BBOX_QUERY = (100.0, 150.0, 612.0, 662.0)  # deterministic demo bbox


def spatial_partitioned_docs(sf_dir: str) -> str:
    """Labeled docs written ONCE as hive-partitioned parquet keyed by the
    coarse spatial tile of each label (partition_cols=['ptile']) — the
    clustered layout that makes spatial reads prunable.  Fingerprinted and
    atomically published like the labeled checkpoint."""
    from ..stages.cells import encode_cells, grid_coords

    def add_ptile(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        ix, iy = grid_coords(x, y, COARSE_RES)
        pt = encode_cells(ix, iy, COARSE_RES)
        return pa.table({
            "doc_num": batch.column("doc_num"),
            "label_x": batch.column("label_x"),
            "label_y": batch.column("label_y"),
            "ptile": pa.array(pt, type=pa.int64()),
        })

    return _checkpoint(
        sf_dir, "labeled_spatial", [table_path(sf_dir, "documents")],
        lambda path: labeled_docs(sf_dir).map_batches(
            add_ptile, batch_format="pyarrow", zero_copy_batch=True,
        ).write_parquet(path, partition_cols=["ptile"]))


def q_bbox_query(sf_dir: str):
    """PARTITION-PRUNED spatial read: only the coarse-tile partitions whose
    cells intersect the query bbox are opened (cover_bbox over the same
    grid that wrote them — a guaranteed superset of matching rows), then
    the exact bbox filter runs per batch.  At 10^12 docs this reads
    |bbox|/|world| of the data instead of all of it.  Restricted to the
    dyadic fixtures so the oracle can reconstruct label coordinates
    fp-exactly (integer translation of dyadic constants)."""
    import os

    from ..stages.cells import cover_bbox

    import ray
    ckpt = spatial_partitioned_docs(sf_dir)
    x0, y0, x1, y1 = BBOX_QUERY
    tiles = cover_bbox(x0, y0, x1, y1, COARSE_RES)
    import glob as _glob

    files = []
    for t in tiles:
        d = os.path.join(ckpt, f"ptile={int(t)}")
        if os.path.isdir(d):
            files.extend(sorted(_glob.glob(os.path.join(d, "*.parquet"))))
    ds = ray.data.read_parquet(files)

    mods = DYADIC_IDX

    def exact(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        fixture_idx = batch.column("doc_num").to_numpy() % docs_mod.N_FIXTURES
        m = (x >= x0) & (x < x1) & (y >= y0) & (y < y1) & np.isin(fixture_idx, mods)
        return batch.filter(pa.array(m)).select(["doc_num", "label_x", "label_y"])

    return ds.map_batches(exact, batch_format="pyarrow", zero_copy_batch=True)


def _sql_bbox_query() -> str:
    x0, y0, x1, y1 = BBOX_QUERY
    return f"""
        SELECT doc_num, label_x, label_y FROM ({_sql_label_dyadic()})
        WHERE label_x >= {x0} AND label_x < {x1}
          AND label_y >= {y0} AND label_y < {y1}
    """


def q_label_summary(sf_dir: str):
    """Full labeling across every fixture; per-fixture counts + ok counts."""
    ds = labeled_docs(sf_dir)

    def summarize(batch: pa.Table) -> pa.Table:
        fixture_idx = batch.column("doc_num").to_numpy() % docs_mod.N_FIXTURES
        ok = pc.and_(
            pc.is_null(batch.column("label_error")),
            pc.is_finite(batch.column("label_x")),
        )
        return pa.table({
            "fixture_idx": pa.array(fixture_idx, type=pa.int64()),
            "ok": pc.cast(ok, pa.int64()),
        })

    from .agg import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True),
        ["fixture_idx"],
        [("count", None, "n_docs"), ("sum", "ok", "n_ok")],
    )


SQL_LABEL_SUMMARY = f"""
    SELECT doc_id % {docs_mod.N_FIXTURES} AS fixture_idx,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(COUNT(*) AS BIGINT) AS n_ok
    FROM documents GROUP BY 1
"""


def q_span_integrity(sf_dir: str):
    """Span-sequence invariant surfaced as a query: per doc, the span count
    and a parity-checkable first/last span kind after the full label stage."""
    ds = labeled_docs(sf_dir)

    def project(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        nspans = pc.list_value_length(spans)
        kinds = pc.list_flatten(pc.list_slice(spans, 0, 1))
        first_kind = pc.struct_field(kinds, "kind")
        return pa.table({
            "doc_num": batch.column("doc_num"),
            "n_spans": pc.cast(nspans, pa.int64()),
            "first_kind": first_kind,
        })

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


SQL_SPAN_INTEGRITY = """
    SELECT doc_id AS doc_num,
           CAST(doc_id % 8 + 1 AS BIGINT) AS n_spans,
           CASE doc_id % 4 WHEN 0 THEN 'text' WHEN 1 THEN 'image'
                           WHEN 2 THEN 'audio' ELSE 'video' END AS first_kind
    FROM documents
"""


# --------------------------------------------------------------------------
# spatial join / cells / tiles
# --------------------------------------------------------------------------

def sql_cell_id_expr(x_expr: str, y_expr: str, res: int) -> str:
    """DuckDB SQL computing the same int64 cell id as
    ``stages.cells.grid_coords`` + ``encode_cells`` — used by the oracle
    queries.  Expands the morton interleave bit-by-bit."""
    n = 1 << res
    cell = WORLD_SIZE / n
    ix = (
        f"LEAST({n - 1}, GREATEST(0, CAST(FLOOR(({x_expr} - ({WORLD_MIN!r})) / {cell!r}) AS BIGINT)))"
    )
    iy = (
        f"LEAST({n - 1}, GREATEST(0, CAST(FLOOR(({y_expr} - ({WORLD_MIN!r})) / {cell!r}) AS BIGINT)))"
    )
    return sql_morton_expr(ix, iy, res)


def sql_morton_expr(ix_expr: str, iy_expr: str, res: int) -> str:
    """DuckDB expression: int64 cell id from integer grid exprs."""
    terms = []
    for b in range(res):
        terms.append(f"((({ix_expr} >> {b}) & 1) << {2 * b})")
        terms.append(f"((({iy_expr} >> {b}) & 1) << {2 * b + 1})")
    morton = " | ".join(terms)
    return f"CAST((CAST({res} AS BIGINT) << {_RES_SHIFT}) | ({morton}) AS BIGINT)"


def sql_zone_values() -> str:
    """``stages.join.zone_table()`` as a DuckDB VALUES list."""
    z = zone_table()
    rows = ", ".join(
        f"({int(z['zone_id'][j])}, {z['x0'][j]!r}, {z['y0'][j]!r}, {z['x1'][j]!r}, {z['y1'][j]!r})"
        for j in range(N_ZONES)
    )
    return f"(VALUES {rows}) AS zones(zone_id, zx0, zy0, zx1, zy1)"


def _sql_dyadic_labels_cte() -> str:
    """CTE body: doc_num, label_x, label_y for the dyadic-fixture rows
    (labels fp-exactly fixture_constant + integer offset)."""
    return f"SELECT doc_num, label_x, label_y FROM ({_sql_label_dyadic()})"


def q_labeled_output(sf_dir: str):
    """The flagship product table (FIXTURES.md §3 schema, built by
    ``flagship.labeled_output``) over the labeled unit's rows, projected to
    an oracle-checkable row per document: the nested ``spans`` column
    becomes (n_spans, span_sig) where ``span_sig`` is the md5-low-8-bytes
    of the canonical span-sequence string — computed from the ACTUAL spans
    that traveled the whole chain (synthesize -> label -> encode ->
    partition parquet written by ``run``), so the north-rule span-sequence
    invariant (kind, text, media_ref, order) is oracle-verified end-to-end,
    not assumed.  Label/cell columns are exact for the dyadic fixtures and
    NULL otherwise (same contract as label_dyadic)."""
    from .flagship import labeled_output

    ds = labeled_output(labeled_docs(sf_dir))
    mods = np.array(DYADIC_IDX, dtype=np.int64)

    def project(batch: pa.Table) -> pa.Table:
        doc_id = batch.column("doc_id")
        doc_num = pc.cast(pc.utf8_slice_codeunits(doc_id, 4), pa.int64())
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        counts = pc.list_value_length(spans).to_numpy().astype(np.int64)
        offs = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=offs[1:])
        flat = spans.flatten()
        per_span = pc.binary_join_element_wise(
            flat.field("kind"),
            pc.fill_null(flat.field("text"), ""),
            pc.fill_null(flat.field("media_ref"), ""),
            pc.cast(flat.field("offset"), pa.string()),
            "|",
        )
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()), per_span), ";"
        )
        sig = np.fromiter(
            (
                int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")
                for s in joined.to_pylist()
            ),
            dtype=np.uint64,
            count=len(counts),
        )
        dyadic = pa.array(np.isin(doc_num.to_numpy() % docs_mod.N_FIXTURES, mods))
        label = batch.column("label")
        if isinstance(label, pa.ChunkedArray):
            label = label.combine_chunks()

        def masked(col):
            return pc.if_else(dyadic, col, pa.nulls(len(counts), col.type))

        return pa.table({
            "doc_num": doc_num,
            "doc_id": doc_id,
            "n_spans": pa.array(counts, type=pa.int64()),
            "span_sig": pa.array(sig, type=pa.uint64()),
            "label_x": masked(pc.struct_field(label, "x")),
            "label_y": masked(pc.struct_field(label, "y")),
            "label_dist": masked(batch.column("label_dist")),
            "area": masked(batch.column("area")),
            # -1 sentinel (not NULL) for non-dyadic rows: a nullable int64
            # becomes float64 in pandas and 2^61-scale cell ids lose
            # precision there
            "cell_id": pc.if_else(
                dyadic, pc.cast(batch.column("cell_id"), pa.int64()),
                pa.array(np.full(len(counts), -1), type=pa.int64()),
            ),
            "tile_id": pc.if_else(
                dyadic, pc.cast(batch.column("tile_id"), pa.int64()),
                pa.array(np.full(len(counts), -1), type=pa.int64()),
            ),
        })

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _sql_labeled_output() -> str:
    """SQL replay: span synthesis re-derived from doc_id arithmetic
    (sources/docs.py::spans_for_doc_ids) with the SAME canonical string +
    md5_number_lower, labels/cells from the dyadic-fixture CTE."""
    from ..config import DEFAULT_CELL_RES, DEFAULT_TILE_RES

    cell = sql_cell_id_expr("l.label_x", "l.label_y", DEFAULT_CELL_RES)
    tile = sql_cell_id_expr("l.label_x", "l.label_y", DEFAULT_TILE_RES)
    return f"""
        WITH d AS (
          SELECT doc_id AS doc_num,
                 'doc-' || doc_id AS doc_id_str,
                 CAST(doc_id % 8 + 1 AS BIGINT) AS n_spans,
                 md5_number_lower(array_to_string(
                   list_transform(range(doc_id % 8 + 1), j ->
                     (CASE (doc_id + j) % 4 WHEN 0 THEN 'text' WHEN 1 THEN 'image'
                           WHEN 2 THEN 'audio' ELSE 'video' END)
                     || '|' ||
                     (CASE WHEN (doc_id + j) % 4 = 0
                           THEN 'text of doc ' || doc_id || ' span ' || j
                           ELSE '' END)
                     || '|' ||
                     (CASE WHEN (doc_id + j) % 4 <> 0
                           THEN 'media://' || doc_id || '/' || j
                           ELSE '' END)
                     || '|' || j
                   ), ';')) AS span_sig
          FROM documents
        ), l AS ({_sql_label_dyadic()})
        SELECT d.doc_num,
               d.doc_id_str AS doc_id,
               d.n_spans,
               d.span_sig,
               l.label_x, l.label_y, l.label_dist, l.area,
               CAST(CASE WHEN l.doc_num IS NULL THEN -1 ELSE {cell} END
                    AS BIGINT) AS cell_id,
               CAST(CASE WHEN l.doc_num IS NULL THEN -1 ELSE {tile} END
                    AS BIGINT) AS tile_id
        FROM d LEFT JOIN l ON d.doc_num = l.doc_num
    """


def q_cell_encode(sf_dir: str):
    """H3/S2-style cell encoding of label points (stateless tasks)."""
    ds = _dyadic_labeled(sf_dir, CELL_COLUMNS)
    return ds.select_columns(["doc_num", "cell_id", "tile_id"])


def _sql_cell_encode() -> str:
    from ..config import DEFAULT_CELL_RES, DEFAULT_TILE_RES

    cell = sql_cell_id_expr("label_x", "label_y", DEFAULT_CELL_RES)
    tile = sql_cell_id_expr("label_x", "label_y", DEFAULT_TILE_RES)
    return (
        f"WITH labels AS ({_sql_dyadic_labels_cte()}) "
        f"SELECT doc_num, {cell} AS cell_id, {tile} AS tile_id FROM labels"
    )


def q_zone_join(sf_dir: str):
    """Point-in-polygon spatial join: label point x containing zones
    (broadcast small side + cell prefilter built once when the query is
    planned + exact parity test)."""
    from ..stages.join import ZoneJoin

    ds = _dyadic_labeled(sf_dir)
    return ds.map_batches(ZoneJoin(),
                          batch_format="pyarrow", zero_copy_batch=True)


def _sql_zone_join() -> str:
    return (
        f"WITH labels AS ({_sql_dyadic_labels_cte()}) "
        f"SELECT doc_num, zone_id FROM labels, {sql_zone_values()} "
        f"WHERE label_x BETWEEN zx0 AND zx1 AND label_y BETWEEN zy0 AND zy1"
    )


def q_events_windowed(sf_dir: str):
    """Tumbling-window (1h) aggregate per event_type — the streaming-style
    windowed rollup, as a groupby over truncated event time."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        # epoch-microsecond ints, not timestamps: pandas timestamp units
        # (ns vs us) differ between Arrow and DuckDB paths and would trip a
        # schema comparison
        win = pc.floor_temporal(batch.column("ts"), unit="hour")
        return pa.table({
            "window_start_us": pc.cast(win, pa.int64()),
            "event_type": batch.column("event_type"),
            "value_cents": pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()),
        })

    from .agg import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True),
        ["window_start_us", "event_type"],
        [("count", None, "n_events"), ("sum", "value_cents", "sum_value_cents")],
    )


SQL_EVENTS_WINDOWED = """
    SELECT CAST(epoch_us(date_trunc('hour', ts)) AS BIGINT) AS window_start_us,
           event_type,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents
    FROM events GROUP BY 1, 2
"""


def q_knn_tiles(sf_dir: str):
    """k-nearest tile centers per label point (expanding-ring search)."""
    from ..stages.join import KnnTiles

    ds = _dyadic_labeled(sf_dir)
    return ds.map_batches(KnnTiles(),
                          batch_format="pyarrow", zero_copy_batch=True)


def _sql_knn_tiles() -> str:
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE

    n = 1 << DEFAULT_TILE_RES
    size = WORLD_SIZE / n
    tid = sql_morton_expr("gx.ix", "gy.iy", DEFAULT_TILE_RES)
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        tiles AS (
            SELECT {tid} AS tile_id,
                   {WORLD_MIN!r} + (gx.ix + 0.5) * {size!r} AS cx,
                   {WORLD_MIN!r} + (gy.iy + 0.5) * {size!r} AS cy
            FROM generate_series(0, {n - 1}) AS gx(ix),
                 generate_series(0, {n - 1}) AS gy(iy)
        ),
        scored AS (
            SELECT l.doc_num, t.tile_id,
                   (l.label_x - t.cx)*(l.label_x - t.cx)
                 + (l.label_y - t.cy)*(l.label_y - t.cy) AS dist2
            FROM labels l CROSS JOIN tiles t
        ),
        ranked AS (
            SELECT doc_num, tile_id, dist2,
                   ROW_NUMBER() OVER (PARTITION BY doc_num ORDER BY dist2, tile_id)
                       AS knn_rank
            FROM scored
        )
        SELECT doc_num, CAST(knn_rank AS BIGINT) AS knn_rank, tile_id, dist2
        FROM ranked WHERE knn_rank <= 3
    """


def q_tile_counts(sf_dir: str):
    """Per-tile label counts after the groupby(tile_id) shuffle."""
    ds = _dyadic_labeled(sf_dir, CELL_COLUMNS)
    from .agg import grouped_aggregate

    return grouped_aggregate(ds, ["tile_id"], [("count", None, "n_points")])


def _sql_tile_counts() -> str:
    from ..config import DEFAULT_TILE_RES

    tile = sql_cell_id_expr("label_x", "label_y", DEFAULT_TILE_RES)
    return (
        f"WITH labels AS ({_sql_dyadic_labels_cte()}) "
        f"SELECT {tile} AS tile_id, CAST(COUNT(*) AS BIGINT) AS n_points "
        f"FROM labels GROUP BY 1"
    )


def q_render_tiles(sf_dir: str):
    """Tile render pipeline (shuffle by tile_id -> per-tile raster/vector
    render), projected to the raster's integer invariants so DuckDB can
    verify the rendered grids value-exactly: raster_sum == points in the
    tile, raster_nonzero == distinct pixels hit, n_zones_clipped == zones
    overlapping the tile bbox.  Restricted to the dyadic-fixture docs
    (the exact-oracle set, same contract as zone_join/cell_encode); the
    all-fixture path with full binary payloads runs in the flagship and
    the pytest golden tests."""
    from ..stages.tiles import render_tiles

    ds = _dyadic_labeled(sf_dir, CELL_COLUMNS)
    tiles = render_tiles(ds)
    return tiles.select_columns(
        ["tile_id", "n_points", "n_zones_clipped", "raster_nonzero", "raster_sum"]
    )


def _sql_render_tiles() -> str:
    """SQL replay of TileRenderer's integer invariants over the dyadic
    labels: pixel coords via the same exact dyadic float arithmetic (tile
    size 128 and raster 64 px are powers of two, labels and offsets are
    dyadic, so FLOOR-division replays numpy's truncation bit-exactly)."""
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE

    n = 1 << DEFAULT_TILE_RES
    ts = WORLD_SIZE / n  # 128.0
    tile = sql_cell_id_expr("label_x", "label_y", DEFAULT_TILE_RES)

    def grid(c):
        return (
            f"LEAST({n - 1}, GREATEST(0, "
            f"CAST(FLOOR(({c} - ({WORLD_MIN!r})) / {ts!r}) AS BIGINT)))"
        )

    def pix(c, i):
        return (
            f"LEAST(63, GREATEST(0, CAST(FLOOR(({c} - ({WORLD_MIN!r} + {i} * {ts!r}))"
            f" / {ts!r} * 64) AS BIGINT)))"
        )

    return f"""
        WITH l AS ({_sql_label_dyadic()}),
        pts AS (
          SELECT {tile} AS tile_id,
                 {grid('label_x')} AS ixt, {grid('label_y')} AS iyt,
                 label_x, label_y
          FROM l
        ), px AS (
          SELECT tile_id, ixt, iyt,
                 {pix('label_x', 'ixt')} AS gx,
                 {pix('label_y', 'iyt')} AS gy
          FROM pts
        ), agg AS (
          SELECT tile_id, ixt, iyt,
                 CAST(COUNT(*) AS BIGINT) AS n_points,
                 CAST(COUNT(DISTINCT gy * 64 + gx) AS BIGINT) AS raster_nonzero,
                 CAST(COUNT(*) AS BIGINT) AS raster_sum
          FROM px GROUP BY tile_id, ixt, iyt
        )
        SELECT tile_id, n_points,
               (SELECT CAST(COUNT(*) AS BIGINT) FROM {sql_zone_values()}
                WHERE GREATEST(zx0, {WORLD_MIN!r} + agg.ixt * {ts!r})
                      < LEAST(zx1, {WORLD_MIN!r} + (agg.ixt + 1) * {ts!r})
                  AND GREATEST(zy0, {WORLD_MIN!r} + agg.iyt * {ts!r})
                      < LEAST(zy1, {WORLD_MIN!r} + (agg.iyt + 1) * {ts!r})
               ) AS n_zones_clipped,
               raster_nonzero, raster_sum
        FROM agg
    """


# --------------------------------------------------------------------------
# relational operators over the TPC-H-ish tables (engine generality)
# --------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    """Groupby-aggregate with map-side-friendly exact arithmetic (cents)."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)), pa.int64())
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "l_quantity": batch.column("l_quantity"),
            "price_cents": cents,
        })

    from .agg import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        [
            ("sum", "l_quantity", "sum_qty"),
            ("sum", "price_cents", "sum_price_cents"),
            ("mean", "l_quantity", "avg_qty"),
            ("count", None, "count_order"),
        ],
    )


SQL_PRICING_SUMMARY = """
    SELECT l_returnflag, l_linestatus,
           SUM(l_quantity) AS sum_qty,
           CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
           AVG(l_quantity) AS avg_qty,
           CAST(COUNT(*) AS BIGINT) AS count_order
    FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_top_orders(sf_dir: str):
    """Sort + limit (top-k), deterministic via secondary key."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


SQL_TOP_ORDERS = """
    SELECT o_orderkey, o_totalprice FROM orders
    ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
"""


def q_customers_per_nation(sf_dir: str):
    """Broadcast hash join (small side shipped once via ray.put) + count."""
    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])

    class AttachNation:
        """Broadcast LUT join, vectorized: searchsorted over the sorted key
        column + a single pc.take gather (no per-row Python)."""

        def __init__(self, tbl: pa.Table):
            keys = tbl.column("n_nationkey").to_numpy().astype(np.int64)
            order = np.argsort(keys)
            self.keys_sorted = keys[order]
            self.names_sorted = tbl.column("n_name").combine_chunks().take(pa.array(order))

        def __call__(self, batch: pa.Table) -> pa.Table:
            keys = batch.column("c_nationkey").to_numpy()
            idx = np.searchsorted(self.keys_sorted, keys)
            return pa.table({"n_name": self.names_sorted.take(pa.array(idx))})

    ds = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_nationkey"])
    fn = AttachNation(nation)
    from .agg import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True),
        ["n_name"],
        [("count", None, "num_customers")],
    )


SQL_CUSTOMERS_PER_NATION = """
    SELECT n_name, CAST(COUNT(*) AS BIGINT) AS num_customers
    FROM customer JOIN nation ON c_nationkey = n_nationkey
    GROUP BY n_name
"""


def q_events_by_type(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "value_cents": pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()),
        })

    from .agg import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"],
        [("count", None, "n_events"), ("sum", "value_cents", "sum_value_cents")],
    )


SQL_EVENTS_BY_TYPE = """
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents
    FROM events GROUP BY event_type
"""


# --------------------------------------------------------------------------
# text / dedup over the documents table
# --------------------------------------------------------------------------

def q_token_counts(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def count_tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch.column("text"), pattern=r"\S+")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.cast(n, pa.int64()),
        })

    return ds.map_batches(count_tokens, batch_format="pyarrow", zero_copy_batch=True)


SQL_TOKEN_COUNTS = r"""
    SELECT doc_id, CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
    FROM documents
"""


def md5_batch(texts: pa.ChunkedArray | pa.Array) -> pa.Array:
    vals = texts.to_pylist()
    return pa.array(
        [hashlib.md5(t.encode("utf-8")).hexdigest() if t is not None else None for t in vals],
        type=pa.string(),
    )


def q_exact_dedup(sf_dir: str):
    """Exact dedup: content-hash partition, keep first doc per hash."""
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def hash_stage(batch: pa.Table) -> pa.Table:
        return pa.table({
            "text_hash": md5_batch(batch.column("text")),
            "doc_id": batch.column("doc_id"),
        })

    from .agg import grouped_aggregate

    # content hashes are ~unique: hash-partitioned final exchange
    return grouped_aggregate(
        ds.map_batches(hash_stage, batch_format="pyarrow", zero_copy_batch=True),
        ["text_hash"],
        [("min", "doc_id", "keep_doc_id"), ("count", None, "dup_count")],
    )


SQL_EXACT_DEDUP = """
    SELECT md5(text) AS text_hash,
           CAST(MIN(doc_id) AS BIGINT) AS keep_doc_id,
           CAST(COUNT(*) AS BIGINT) AS dup_count
    FROM documents GROUP BY 1
"""


def q_lang_counts(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    from .agg import grouped_aggregate

    return grouped_aggregate(
        ds, ["lang"], [("count", None, "n_docs"), ("sum", "n_chars", "total_chars")]
    )


SQL_LANG_COUNTS = """
    SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(n_chars) AS BIGINT) AS total_chars
    FROM documents GROUP BY lang
"""


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (30-min inactivity): per-user event streams
    sorted by time inside ``groupby(user_id).map_groups`` — the stateful
    ordered-within-key pattern; output is one row per session."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    GAP_US = 30 * 60 * 1_000_000

    def sessions(group: pa.Table) -> pa.Table:
        ts = group.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        uid = int(group.column("user_id")[0].as_py())
        new_session = np.empty(len(ts), dtype=bool)
        new_session[0] = True
        np.greater(np.diff(ts), GAP_US, out=new_session[1:])
        sid = np.cumsum(new_session)  # 1-based session index per user
        starts = np.flatnonzero(new_session)
        ends = np.append(starts[1:], len(ts))
        return pa.table({
            "user_id": pa.array(np.full(len(starts), uid), type=pa.int64()),
            "session_idx": pa.array(np.arange(1, len(starts) + 1), type=pa.int64()),
            "n_events": pa.array(ends - starts, type=pa.int64()),
            "session_start_us": pa.array(ts[starts], type=pa.int64()),
            "session_end_us": pa.array(ts[ends - 1], type=pa.int64()),
        })

    return group_map(ds, "user_id", sessions)


SQL_SESSIONIZE = """
    WITH marked AS (
        SELECT user_id, ts,
               CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                    OR LAG(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_session
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    ),
    numbered AS (
        SELECT user_id, ts,
               SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                      ROWS UNBOUNDED PRECEDING) AS session_idx
        FROM marked
    )
    SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(epoch_us(MIN(ts)) AS BIGINT) AS session_start_us,
           CAST(epoch_us(MAX(ts)) AS BIGINT) AS session_end_us
    FROM numbered GROUP BY user_id, session_idx
"""


def q_asof_purchase_view(sf_dir: str, n_parts: int | None = None):
    """AS-OF join (an operator Ray Data lacks natively): every 'purchase'
    event is matched to the latest 'view' event of the same user at or
    before it.  Both sides are co-partitioned by hash(user_id) through ONE
    groupby; inside each partition the views are sorted once and every
    purchase resolves with a single vectorized searchsorted over packed
    (user, ts) keys.  Inner semantics (purchases with no prior view drop),
    matching DuckDB's ASOF JOIN oracle."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        kind = batch.column("event_type")
        keep = pc.is_in(kind, value_set=pa.array(["purchase", "view"]))
        b = batch.filter(keep)
        uid = b.column("user_id").to_numpy().astype(np.int64)
        ts_us = b.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        is_p = pc.equal(b.column("event_type"), "purchase")
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "event_id": b.column("event_id"),
            "is_purchase": pc.cast(is_p, pa.int64()),
        })

    def asof_group(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        isp = group.column("is_purchase").to_numpy().astype(bool)
        empty = pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "purchase_ts_us": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "view_ts_us": pa.array([], type=pa.int64()),
        })
        if not isp.any() or isp.all():
            return empty
        # pack (user, ts-rel) into one sortable int64: after rebasing to the
        # partition's min, ts must span < 2^42 us (~52 days) and user ids
        # < 2^21 — explicit guards, not silent corruption; wider domains
        # would move to a (user-segment boundaries + per-segment ts
        # searchsorted) two-level scheme
        t0 = ts.min()
        rel = ts - t0
        if rel.max() >= (1 << 42) or uid.max() >= (1 << 21):
            raise ValueError("asof key packing out of range: widen the scheme")
        key = (uid << np.int64(42)) | rel
        vmask = ~isp
        vkey = np.sort(key[vmask])
        vu_sorted = (vkey >> np.int64(42))
        pk = key[isp]
        idx = np.searchsorted(vkey, pk, side="right") - 1
        ok = idx >= 0
        ok[ok] &= vu_sorted[idx[ok]] == (pk[ok] >> np.int64(42))
        if not ok.any():
            return empty
        sel_p = np.flatnonzero(isp)[ok]
        view_ts = (vkey[idx[ok]] & ((np.int64(1) << np.int64(42)) - 1)) + t0
        return pa.table({
            "event_id": pa.array(eid[sel_p], type=pa.int64()),
            "purchase_ts_us": pa.array(ts[sel_p], type=pa.int64()),
            "user_id": pa.array(uid[sel_p], type=pa.int64()),
            "view_ts_us": pa.array(view_ts, type=pa.int64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", asof_group, n_parts,
    )


SQL_ASOF_PURCHASE_VIEW = """
    SELECT p.event_id,
           CAST(epoch_us(p.ts) AS BIGINT) AS purchase_ts_us,
           p.user_id,
           CAST(epoch_us(v.ts) AS BIGINT) AS view_ts_us
    FROM (SELECT * FROM events WHERE event_type = 'purchase') p
    ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') v
      ON p.user_id = v.user_id AND p.ts >= v.ts
"""


def q_top_orders_per_customer(sf_dir: str, k: int = 3, n_parts: int | None = None):
    """Windowed rank / top-N per group WITHOUT one-task-per-group: orders
    are hash-partitioned by customer through one groupby, and each partition
    ranks every customer's orders in a single vectorized lexsort + segment
    sweep (groupby(custkey).map_groups would pay ~0.2 s per group at 100k+
    customers — this pays it once per partition)."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )

    def topk_group(group: pa.Table) -> pa.Table:
        cust = group.column("o_custkey").to_numpy().astype(np.int64)
        okey = group.column("o_orderkey").to_numpy().astype(np.int64)
        price = group.column("o_totalprice").to_numpy()
        order = np.lexsort((okey, -price, cust))  # cust asc, price desc, key asc
        cs = cust[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        seg_id = np.cumsum(np.r_[True, cs[1:] != cs[:-1]]) - 1
        rn = np.arange(len(cs)) - starts[seg_id]
        keep = rn < k
        sel = order[keep]
        return pa.table({
            "o_custkey": pa.array(cust[sel], type=pa.int64()),
            "rank": pa.array(rn[keep] + 1, type=pa.int64()),
            "o_orderkey": pa.array(okey[sel], type=pa.int64()),
            "o_totalprice": pa.array(price[sel], type=pa.float64()),
        })

    return hash_exchange(ds, "o_custkey", topk_group, n_parts)


SQL_TOP_ORDERS_PER_CUSTOMER = """
    SELECT o_custkey, CAST(rn AS BIGINT) AS rank, o_orderkey, o_totalprice
    FROM (
        SELECT o_custkey, o_orderkey, o_totalprice,
               ROW_NUMBER() OVER (PARTITION BY o_custkey
                                  ORDER BY o_totalprice DESC, o_orderkey) AS rn
        FROM orders
    ) WHERE rn <= 3
"""


QUANTILE_QS = (0.25, 0.5, 0.9)
QUANTILE_BINS = 4096


def q_value_quantiles(sf_dir: str):
    """EXACT distributed quantiles (quantile_disc semantics: the element at
    0-indexed rank ceil(q*n)-1) without ever materializing or sorting the
    column: (1) one streamed pass reduces per-batch (count, min, max);
    (2) one streamed pass reduces a 4096-bin histogram (each batch emits one
    partial vector — driver sees O(batches) rows, not O(n)); (3) only the
    bins containing target ranks are filtered out and sorted — expected
    n/4096 rows per bin; at deeper scale the same step recurses per bin
    instead of collecting."""
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def stats_batch(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        return pa.table({
            "n": pa.array([len(v)], type=pa.int64()),
            "lo": pa.array([float(v.min()) if len(v) else np.inf]),
            "hi": pa.array([float(v.max()) if len(v) else -np.inf]),
        })

    st = ds.map_batches(stats_batch, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    n = int(st["n"].sum())
    lo = float(st["lo"].min())
    hi = float(st["hi"].max())
    ks = [int(np.ceil(q * n)) - 1 for q in QUANTILE_QS]

    if n == 0 or lo == hi:
        return pa.table({
            "q": pa.array(list(QUANTILE_QS), type=pa.float64()),
            "value": pa.array([lo] * len(QUANTILE_QS), type=pa.float64()),
        })

    B = QUANTILE_BINS
    scale = B / (hi - lo)

    def bin_of(v: np.ndarray) -> np.ndarray:
        return np.minimum((np.maximum(v - lo, 0.0) * scale).astype(np.int64), B - 1)

    def hist_batch(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        h = np.bincount(bin_of(v), minlength=B)
        return pa.table({"hist": pa.array([h], type=pa.list_(pa.int64()))})

    parts = ds.map_batches(hist_batch, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    hist = np.zeros(B, dtype=np.int64)
    for row in parts["hist"]:
        hist += np.asarray(row, dtype=np.int64)
    cum = np.concatenate([[0], np.cumsum(hist)])
    target_bins = sorted({int(np.searchsorted(cum, kk, side="right") - 1) for kk in ks})

    tb = np.asarray(target_bins, dtype=np.int64)

    def pick_bins(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        m = np.isin(bin_of(v), tb)
        return pa.table({"value": pa.array(v[m], type=pa.float64()),
                         "bin": pa.array(bin_of(v[m]), type=pa.int64())})

    got = ds.map_batches(pick_bins, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    out_vals = []
    for kk in ks:
        b = int(np.searchsorted(cum, kk, side="right") - 1)
        vals = np.sort(got.loc[got["bin"] == b, "value"].to_numpy())
        out_vals.append(float(vals[kk - cum[b]]))
    return pa.table({
        "q": pa.array(list(QUANTILE_QS), type=pa.float64()),
        "value": pa.array(out_vals, type=pa.float64()),
    })


SQL_VALUE_QUANTILES = """
    SELECT 0.25 AS q, quantile_disc(value, 0.25) AS value FROM events
    UNION ALL
    SELECT 0.5 AS q, quantile_disc(value, 0.5) AS value FROM events
    UNION ALL
    SELECT 0.9 AS q, quantile_disc(value, 0.9) AS value FROM events
"""


def q_orders_without_lineitems(sf_dir: str):
    """Distributed anti join: orders with no lineitem rows.

    Both key columns flow through ONE co-partitioned aggregate — each side
    tagged with a presence flag, map-side combined per batch (unique keys +
    max flag), then a key groupby reduces to (has_order, has_line) per key.
    No driver-side key materialization; shuffle volume is O(distinct keys ×
    blocks) after the partial combine, not O(lineitem rows)."""
    import ray

    def tag(flag_order: int, flag_line: int, key_col: str):
        def stage(batch: pa.Table) -> pa.Table:
            keys = pc.unique(batch.column(key_col))
            n = len(keys)
            return pa.table({
                "o_orderkey": pc.cast(keys, pa.int64()),
                "is_order": pa.array(np.full(n, flag_order, dtype=np.int64)),
                "is_line": pa.array(np.full(n, flag_line, dtype=np.int64)),
            })
        return stage

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    ).map_batches(tag(1, 0, "o_orderkey"), batch_format="pyarrow", zero_copy_batch=True)
    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    ).map_batches(tag(0, 1, "l_orderkey"), batch_format="pyarrow", zero_copy_batch=True)

    from .agg import grouped_aggregate

    flags = grouped_aggregate(
        orders.union(lines),
        ["o_orderkey"],
        [("max", "is_order", "has_order"), ("max", "is_line", "has_line")],
    )

    def anti(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch.column("has_order"), 1), pc.equal(batch.column("has_line"), 0)
        )
        return batch.filter(mask).select(["o_orderkey"])

    return flags.map_batches(anti, batch_format="pyarrow", zero_copy_batch=True)


SQL_ORDERS_WITHOUT_LINEITEMS = """
    SELECT o_orderkey FROM orders
    WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)
"""


def q_distinct_sources(sf_dir: str):
    """Distinct/unique over a projected column (set op)."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source"])

    def dedup_batch(batch: pa.Table) -> pa.Table:
        # map-side distinct before the tiny global distinct
        return pa.table({"source": pa.array(sorted(set(batch.column("source").to_pylist())))})

    from .agg import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(dedup_batch, batch_format="pyarrow", zero_copy_batch=True),
        ["source"],
        [("count", None, "n_partials")],
    ).select_columns(["source"])


SQL_DISTINCT_SOURCES = "SELECT DISTINCT source FROM documents"


# --------------------------------------------------------------------------
# training-data ops: quality, langid, fingerprint, dedup, similarity
# --------------------------------------------------------------------------

def q_quality_scores(sf_dir: str):
    from .text import quality_batch

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch.column("text").combine_chunks() if isinstance(batch.column("text"), pa.ChunkedArray) else batch.column("text"))
        return q.add_column(0, "doc_id", batch.column("doc_id"))

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


SQL_QUALITY_SCORES = r"""
    SELECT doc_id,
           CAST(length(text) AS BIGINT) AS n_chars,
           CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
           CAST(len(regexp_extract_all(text, '[.,!?;:]')) AS BIGINT) AS punct_count,
           CAST(len(list_filter(regexp_extract_all(lower(text), '\S+'),
               t -> t IN ('the','and','of','to','a','in','is','it','that','for'))) AS BIGINT)
               AS stopword_hits,
           CAST(len(list_filter(regexp_extract_all(lower(text), '\S+'),
               t -> t IN ('the','and','of','to','a','in','is','it','that','for'))) AS DOUBLE)
             / GREATEST(CAST(len(regexp_extract_all(text, '\S+')) AS DOUBLE), 1.0) AS stop_ratio,
           CAST(len(regexp_extract_all(text, '[.,!?;:]')) AS DOUBLE)
             / GREATEST(CAST(length(text) AS DOUBLE), 1.0) AS punct_ratio,
           CAST(length(text) AS DOUBLE)
             / GREATEST(CAST(len(regexp_extract_all(text, '\S+')) AS DOUBLE), 1.0) AS mean_word_len
    FROM documents
"""


def q_bpe_tokens(sf_dir: str):
    from .text import token_counts_batch

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        t = token_counts_batch(batch.column("text"))
        return t.add_column(0, "doc_id", batch.column("doc_id"))

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


SQL_BPE_TOKENS = r"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens,
           CAST(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS BIGINT)
               AS n_bpe_tokens
    FROM documents
"""


def q_lang_id(sf_dir: str):
    """Heuristic language ID vs the table's lang column (oracle-backed: the
    stopword-vote + CJK-share heuristic is replayed in pure SQL)."""
    from .text import lang_id_batch

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def stage(batch: pa.Table) -> pa.Table:
        pred = lang_id_batch(batch.column("text").to_pylist())
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "pred_lang": pa.array(pred, type=pa.string()),
            "lang": batch.column("lang"),
        })

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_lang_hits(words: tuple) -> str:
    in_list = ",".join(f"'{w}'" for w in words)
    return (
        "len(list_filter(regexp_extract_all(lower(text), '\\S+'),"
        f" t -> t IN ({in_list})))"
    )


def _sql_lang_id() -> str:
    """SQL replay of pipelines/text.py::lang_id_one: CJK codepoint share
    first, then stopword argmax with ties to the earliest profile in
    insertion order (en, fr, de, es), 'und' when no stopword hits."""
    from .text import _LANG_PROFILES

    en = _sql_lang_hits(tuple(sorted(_LANG_PROFILES["en"])))
    fr = _sql_lang_hits(tuple(sorted(_LANG_PROFILES["fr"])))
    de = _sql_lang_hits(tuple(sorted(_LANG_PROFILES["de"])))
    es = _sql_lang_hits(tuple(sorted(_LANG_PROFILES["es"])))
    return f"""
        WITH hits AS (
            SELECT doc_id, lang,
                   len(regexp_extract_all(text, '[一-鿿]')) AS cjk,
                   length(text) AS n,
                   {en} AS h_en, {fr} AS h_fr, {de} AS h_de, {es} AS h_es
            FROM documents
        )
        SELECT doc_id,
               CASE
                 WHEN CAST(cjk AS DOUBLE) / GREATEST(n, 1) > 0.05 THEN 'zh'
                 WHEN GREATEST(h_en, h_fr, h_de, h_es) = 0 THEN 'und'
                 WHEN h_en = GREATEST(h_en, h_fr, h_de, h_es) THEN 'en'
                 WHEN h_fr = GREATEST(h_fr, h_de, h_es) THEN 'fr'
                 WHEN h_de = GREATEST(h_de, h_es) THEN 'de'
                 ELSE 'es'
               END AS pred_lang,
               lang
        FROM hits
    """


def q_fingerprints(sf_dir: str):
    """Rolling-hash content fingerprints (oracle-backed: the polynomial
    fold mod 2^61-1 is replayed with a DuckDB list_reduce over HUGEINTs;
    exact because the corpus is ASCII, where ord(char) == utf-8 byte —
    guarded by the ascii flag column on both sides)."""
    from .text import fingerprint_batch

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        fp = fingerprint_batch(texts)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "fp61": pa.array(fp, type=pa.int64()),
            "is_ascii": pa.array(
                [int(t.isascii()) if t is not None else None for t in texts],
                type=pa.int64(),
            ),
        })

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


SQL_FINGERPRINTS = r"""
    SELECT doc_id,
           CAST(list_reduce(
               list_prepend(CAST(0 AS HUGEINT),
                            list_transform(split(text, ''), x -> CAST(ord(x) AS HUGEINT))),
               (a, b) -> (a * 1000003 + b + 1) % 2305843009213693951
           ) AS BIGINT) AS fp61,
           CAST(NOT regexp_matches(text, '[^\x00-\x7F]') AS BIGINT) AS is_ascii
    FROM documents
"""


def mutate_text(text: str, doc_id: int) -> str:
    """Deterministic near-duplicate: drop every 17th word, tweak one word
    (word-3-gram Jaccard ~0.75-0.85 — inside the r=4/b=16 LSH sweet spot)."""
    toks = text.split()
    kept = [t for i, t in enumerate(toks) if (i + doc_id) % 17 != 0]
    if kept:
        kept[doc_id % len(kept)] = kept[doc_id % len(kept)] + "x"
    return " ".join(kept)


DUP_OFFSET = 1_000_000
DUP_EVERY = 7  # every 7th doc gets a planted near-duplicate


def _corpus_with_planted_dups(sf_dir: str):
    """documents plus planted near-duplicates (doc_id + DUP_OFFSET)."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        mask = ids % DUP_EVERY == 0
        new_ids = list(ids) + [int(i) + DUP_OFFSET for i in ids[mask]]
        new_texts = texts + [
            mutate_text(t, int(i)) for i, t in zip(ids, texts) if int(i) % DUP_EVERY == 0
        ]
        return pa.table({
            "doc_id": pa.array(new_ids, type=pa.int64()),
            "text": pa.array(new_texts, type=pa.string()),
        })

    return ds.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True)


def _sql_planted_corpus() -> str:
    """SQL replay of ``_corpus_with_planted_dups``: base documents UNION the
    deterministic ``mutate_text`` near-duplicates (drop every 17th word by
    (i + doc_id) % 17, append 'x' to word doc_id % len(kept); DuckDB list
    lambdas are 1-indexed, hence the i - 1)."""
    words = r"list_filter(regexp_split_to_array(text, '\s+'), w -> w <> '')"
    return f"""
        SELECT doc_id, text FROM documents
        UNION ALL
        SELECT doc_id + {DUP_OFFSET} AS doc_id,
               array_to_string(
                 list_transform(kept, (w, i) ->
                   CASE WHEN i - 1 = doc_id % GREATEST(len(kept), 1)
                        THEN w || 'x' ELSE w END
                 ), ' ') AS text
        FROM (
          SELECT doc_id,
                 list_filter({words},
                             (w, i) -> ((i - 1) + doc_id) % 17 <> 0) AS kept
          FROM documents WHERE doc_id % {DUP_EVERY} = 0
        )
    """


def _sql_shingle_cte() -> str:
    """(doc_id, g) distinct word-3-gram shingle STRINGS over the planted
    corpus — the exact sets the engine's verify stage uses
    (pipelines/dedup.py::shingle_strs)."""
    return f"""
        corpus AS ({_sql_planted_corpus()}),
        w AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(text), '\\s+'),
                             x -> x <> '') AS ws
          FROM corpus
        ),
        sh AS (
          SELECT DISTINCT doc_id, g FROM (
            SELECT doc_id,
                   unnest(CASE WHEN len(ws) = 0 THEN CAST([] AS VARCHAR[])
                               WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                               ELSE list_transform(range(1, len(ws) - 1),
                                                   i -> ws[i] || ' ' || ws[i+1]
                                                        || ' ' || ws[i+2])
                          END) AS g
            FROM w)
        )
    """


def _sql_minhash_near_dup() -> str:
    """EXHAUSTIVE set-similarity self-join (shared-shingle inverted-index
    join -> exact integer jaccard) — an independent ground truth for the
    LSH pipeline: it finds every pair with j >= 0.5, so the oracle also
    proves the banded-LSH candidate generation missed nothing on this
    corpus, not just that verification was computed correctly."""
    return f"""
        WITH {_sql_shingle_cte()},
        sz AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS s FROM sh GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(COUNT(*) AS BIGINT) AS i
          FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        ), ju AS (
          SELECT doc_a, doc_b, i, sa.s + sb.s - i AS u
          FROM inter JOIN sz sa ON sa.doc_id = inter.doc_a
                     JOIN sz sb ON sb.doc_id = inter.doc_b
        )
        SELECT doc_a, doc_b, CAST((200 * i + u) // (2 * u) AS BIGINT) AS jaccard_pct
        FROM ju WHERE 2 * i >= u
    """


def _sql_dedup_clusters() -> str:
    """Connected components over the SAME exhaustive set-similarity pair
    join as the minhash oracle, via recursive reachability (label(n) =
    min doc_id reachable from n).  Component sizes are tiny (near-dup
    clusters), so the transitive closure stays bounded."""
    return f"""
        WITH RECURSIVE {_sql_shingle_cte()},
        sz AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS s FROM sh GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(COUNT(*) AS BIGINT) AS i
          FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        ), pairs AS (
          SELECT doc_a, doc_b
          FROM inter JOIN sz sa ON sa.doc_id = inter.doc_a
                     JOIN sz sb ON sb.doc_id = inter.doc_b
          WHERE 2 * i >= sa.s + sb.s - i
        ), e AS (
          SELECT doc_a AS src, doc_b AS dst FROM pairs
          UNION SELECT doc_b, doc_a FROM pairs
        ), reach(node, r) AS (
          SELECT src AS node, src AS r FROM e
          UNION
          SELECT e.src, reach.r FROM e JOIN reach ON e.dst = reach.node
        )
        SELECT node AS doc_id, CAST(MIN(r) AS BIGINT) AS cluster_id
        FROM reach GROUP BY node
    """


# SQL replay of pipelines/dedup.py::simhash64_batch over the planted corpus:
# token hash = md5 low 8 bytes LE (md5_number_lower), per-bit +-1 majority
# over whitespace-lowercase tokens, packed and shifted >> 1 for int64.
def _sql_simhash() -> str:
    return f"""
        WITH corpus AS ({_sql_planted_corpus()}),
        toks AS (
          SELECT doc_id,
                 unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                    w -> w <> '')) AS tok
          FROM corpus
        ), bits AS (
          SELECT doc_id, b,
                 SUM(CASE WHEN (md5_number_lower(tok) >> b) & 1 = 1
                          THEN 1 ELSE -1 END) AS s
          FROM toks, (SELECT unnest(range(64)) AS b)
          GROUP BY doc_id, b
        ), packed AS (
          SELECT doc_id,
                 SUM(CASE WHEN s > 0 THEN (CAST(1 AS UBIGINT) << b)
                          ELSE CAST(0 AS UBIGINT) END) AS p
          FROM bits GROUP BY doc_id
        )
        SELECT c.doc_id,
               CAST(COALESCE(p.p, CAST(0 AS UBIGINT)) >> 1 AS BIGINT) AS simhash
        FROM corpus c LEFT JOIN packed p ON c.doc_id = p.doc_id
    """


_MINHASHER = None


def _minhasher():
    global _MINHASHER
    if _MINHASHER is None:
        from .dedup import MinHasher

        _MINHASHER = MinHasher()
    return _MINHASHER


def _ts_us(iso: str) -> int:
    return int(np.datetime64(iso, "us").astype(np.int64))


def _bucket_candidate_pairs(group: pa.Table) -> pa.Table:
    """Vectorized bucket-collision pairs over ONE bucket-hash partition of
    the band table (sorted sweep; per-partition dedup by (a,b) key)."""
    empty = pa.table({
        "doc_a": pa.array([], type=pa.int64()),
        "doc_b": pa.array([], type=pa.int64()),
    })
    if group.num_rows == 0:
        return empty
    b = group.column("bucket").to_numpy()
    d = group.column("doc_id").to_numpy()
    order = np.lexsort((d, b))
    b = b[order]
    d = d[order]
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], len(b)]
    da, db = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        mem = np.unique(d[s:e])
        if len(mem) < 2:
            continue
        iu, ju = np.triu_indices(len(mem), k=1)
        da.append(mem[iu])
        db.append(mem[ju])
    if not da:
        return empty
    A = np.concatenate(da)
    B = np.concatenate(db)
    key = A * np.int64(1 << 31) + B  # doc ids < 2^21 here; no overflow
    _, idx = np.unique(key, return_index=True)
    return pa.table({
        "doc_a": pa.array(A[idx], type=pa.int64()),
        "doc_b": pa.array(B[idx], type=pa.int64()),
    })


def q_minhash_near_dup(
    sf_dir: str,
    threshold: float = 0.5,
    n_parts: int | None = None,
):
    """MinHash+LSH near-dup: a stateless signature + band explode, a
    bucket-hash-partitioned pair sweep (the one shuffle), then the
    broadcast exact-Jaccard verify (``verify_candidate_pairs``):

      signature -> band explode                        (stateless map_batches)
      -> groupby(bucket-hash partition) pair sweep     (shuffle: bands)
      -> global pair dedup + verify against the broadcast corpus

    The oracle is the exhaustive set-similarity self-join; pytest also pins
    planted-pair recall and the partitioned sweep's equality with the
    single-partition one."""
    from .dedup import LSH_BANDS, band_hashes_batch

    P = n_partitions(n_parts)
    ds = _corpus_with_planted_dups(sf_dir)

    def sign_band(batch: pa.Table) -> pa.Table:
        # stateless tasks (scale with CPUs); the MinHasher is deterministic
        # and cached per worker process.  One vectorized permute + banding
        # call for the whole batch (no per-doc Python in the hot path).
        mh = _minhasher()
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        buckets = band_hashes_batch(mh.signatures(texts)).ravel()
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, LSH_BANDS), type=pa.int64()),
            "bucket": pa.array(buckets, type=pa.int64()),
            "part": pa.array(buckets % P, type=pa.int64()),
        })

    banded = ds.map_batches(sign_band, batch_format="pyarrow", zero_copy_batch=True)
    cands = group_map(banded, "part", _bucket_candidate_pairs)
    return verify_candidate_pairs(cands, sf_dir, threshold)


def verify_candidate_pairs(cands, sf_dir: str, threshold: float,
                           pre_deduped: bool = False):
    """Exact-Jaccard verification of candidate pairs — the ONE verify
    stage shared by every similarity self-join whose candidate generator
    emits (doc_a, doc_b) rows (``minhash_near_dup``'s banded LSH and
    ``jaccard_join_exact``'s PPJoin prefix filter).

    The (doc_id -> text) map (base corpus + the same deterministic
    planting ``_corpus_with_planted_dups`` applies) is built from the
    source parquet — no second pipeline run — and shipped to the object
    store ONCE (``ray.put``); candidate pairs verify in stateless tasks,
    with no extra shuffle.  Exact shingle sets are recomputed from the
    texts, so an LSH/hash collision upstream can only add candidates,
    never flip a verified pair.

    The candidate sweep dedupes only within its partition, and the same
    pair surfaces from many band buckets (measured ~13x duplication at
    120k docs), so one small groupby over the 16-byte pair rows dedupes
    them first; ``pre_deduped=True`` skips it when the caller already
    deduplicated (PPJoin's high-cardinality exchange)."""
    from .dedup import jaccard_pct_exact, shingle_strs

    import ray

    if not pre_deduped:
        from .agg import grouped_aggregate

        cands = grouped_aggregate(
            cands, ["doc_a", "doc_b"], [("count", None, "_nbands")]
        ).select_columns(["doc_a", "doc_b"])
    base = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus: dict[int, str] = {}
    for i, t in zip(base.column("doc_id").to_pylist(),
                    base.column("text").to_pylist()):
        corpus[int(i)] = t
        if int(i) % DUP_EVERY == 0:
            corpus[int(i) + DUP_OFFSET] = mutate_text(t, int(i))
    corpus_ref = ray.put(corpus)

    def verify_broadcast(batch: pa.Table) -> pa.Table:
        texts = ray.get(corpus_ref)
        cache: dict[int, set] = {}

        def sh(i: int) -> set:
            v = cache.get(i)
            if v is None:
                v = shingle_strs(texts.get(i, ""))
                cache[i] = v
            return v

        A = batch.column("doc_a").to_numpy()
        B = batch.column("doc_b").to_numpy()
        da, db, jj = [], [], []
        for a_id, b_id in zip(A, B):
            i, u = jaccard_pct_exact(sh(int(a_id)), sh(int(b_id)))
            if i >= threshold * u:
                da.append(int(a_id))
                db.append(int(b_id))
                jj.append((200 * i + u) // (2 * u))
        return pa.table({
            "doc_a": pa.array(da, type=pa.int64()),
            "doc_b": pa.array(db, type=pa.int64()),
            "jaccard_pct": pa.array(jj, type=pa.int64()),
        })

    return cands.map_batches(
        verify_broadcast, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=8192,
    )


TOP_BIGRAMS_K = 20


def q_top_bigrams(sf_dir: str):
    """Corpus n-gram statistics (the vocabulary-counting step of tokenizer
    training): word bigrams synthesized from the SHARED ``tokenized_docs``
    checkpoint (one corpus tokenization pass for the whole BM25/TF-IDF/
    n-gram family) via the vectorized shifted-take join — no per-row
    Python — counted per batch (map-side combine via pyarrow group_by),
    summed through one small groupby over DISTINCT bigrams, then top-k
    with a per-block partial top-k so the final sort sees k x blocks
    rows, not the vocabulary.  Lowercasing commutes with whitespace
    tokenization, so ``utf8_lower`` on the checkpoint's flat token array
    equals tokenizing the lowered text."""
    from .queries_ext2 import ngrams_from_flat, tokenized_docs, toks_flat_from_batch

    ds = tokenized_docs(sf_dir)

    def bigram_counts(batch: pa.Table) -> pa.Table:
        flat, off = toks_flat_from_batch(batch)
        grams, _ = ngrams_from_flat(pc.utf8_lower(flat), off, 2)
        tbl = pa.table({"bigram": grams})
        out = tbl.group_by(["bigram"]).aggregate([("bigram", "count")])
        return pa.table({
            "bigram": out.column("bigram"),
            "n": pc.cast(out.column("bigram_count"), pa.int64()),
        })

    from .agg import grouped_aggregate

    counts = grouped_aggregate(
        ds.map_batches(bigram_counts, batch_format="pyarrow", zero_copy_batch=True),
        ["bigram"],
        [("sum", "n", "n")],
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        g = np.asarray(batch.column("bigram").to_pylist(), dtype=object)
        order = np.lexsort((g, -n))[:TOP_BIGRAMS_K]
        return pa.table({
            "bigram": pa.array(g[order], type=pa.string()),
            "n": pa.array(n[order], type=pa.int64()),
        })

    return (
        counts.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["n", "bigram"], descending=[True, False])
        .limit(TOP_BIGRAMS_K)
    )


SQL_TOP_BIGRAMS = rf"""
    WITH toks AS (
        SELECT regexp_extract_all(lower(text), '\S+') AS t FROM documents
    ),
    bi AS (
        SELECT t[i] || ' ' || t[i + 1] AS bigram
        FROM toks, LATERAL (SELECT unnest(generate_series(1, len(t) - 1)) AS i)
    )
    SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n
    FROM bi GROUP BY bigram
    ORDER BY n DESC, bigram LIMIT {TOP_BIGRAMS_K}
"""


def q_train_test_split(sf_dir: str, train_pct: int = 80):
    """Deterministic content-hash train/test split (the standard leakage-safe
    split for training corpora): split key = first 8 hex chars of md5(text)
    as an integer mod 100, so exact duplicates always land in the same
    split.  Stateless vectorized-per-batch map; oracle replays the same md5
    arithmetic in SQL."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        bucket = np.array(
            [int(hashlib.md5(t.encode()).hexdigest()[:8], 16) % 100 for t in texts],
            dtype=np.int64,
        )
        split = np.where(bucket < train_pct, "train", "test")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "bucket": pa.array(bucket, type=pa.int64()),
            "split": pa.array(split, type=pa.string()),
        })

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


SQL_TRAIN_TEST_SPLIT = """
    SELECT doc_id,
           CAST(CAST(('0x' || substring(md5(text), 1, 8)) AS BIGINT) % 100 AS BIGINT)
               AS bucket,
           CASE WHEN CAST(('0x' || substring(md5(text), 1, 8)) AS BIGINT) % 100 < 80
                THEN 'train' ELSE 'test' END AS split
    FROM documents
"""


PACK_BUDGET = 4096  # tokens per training pack


def q_token_packing(sf_dir: str, n_parts: int | None = None):
    """Global ordered running token totals + pack assignment (the
    sequence-packing step of a training pipeline) via a DISTRIBUTED PREFIX
    SUM: doc ids are dense, so range partitions are formed arithmetically
    (doc_id // range) with no shuffle; per-partition token sums reduce to a
    tiny driver-side prefix table (P rows), and each partition then computes
    its exact global cumulative sums locally.  pack_id = the PACK_BUDGET
    bucket the doc's pack STARTS in (window-function-reproducible, hence the
    SQL oracle)."""
    import ray
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    P = n_partitions(n_parts)
    rng = max(1, -(-n_docs // P))  # ceil

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(batch.column("text"), pattern=r"\S+"), pa.int64())
        part = pc.cast(pc.divide(batch.column("doc_id"), rng), pa.int64())
        return pa.table({
            "part": part,
            "doc_id": batch.column("doc_id"),
            "n_tokens": n,
        })

    toked = ds.map_batches(tokens, batch_format="pyarrow", zero_copy_batch=True)

    from .agg import grouped_aggregate

    # tiny reduce: P rows -> driver-side exclusive prefix per partition
    sums = grouped_aggregate(toked, ["part"], [("sum", "n_tokens", "s")]).to_pandas()
    sums = sums.sort_values("part")
    prefix = dict(zip(sums["part"], np.concatenate([[0], np.cumsum(sums["s"])[:-1]])))

    def cumsum_part(group: pa.Table) -> pa.Table:
        did = group.column("doc_id").to_numpy().astype(np.int64)
        nt = group.column("n_tokens").to_numpy().astype(np.int64)
        order = np.argsort(did)
        did, nt = did[order], nt[order]
        base = int(prefix[int(group.column("part")[0].as_py())])
        cum = base + np.cumsum(nt)
        pack = (cum - nt) // PACK_BUDGET
        return pa.table({
            "doc_id": pa.array(did, type=pa.int64()),
            "cum_tokens": pa.array(cum, type=pa.int64()),
            "pack_id": pa.array(pack, type=pa.int64()),
        })

    return group_map(toked, "part", cumsum_part)


SQL_TOKEN_PACKING = rf"""
    SELECT doc_id,
           CAST(SUM(len(regexp_extract_all(text, '\S+')))
                    OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) AS BIGINT)
               AS cum_tokens,
           CAST(FLOOR((SUM(len(regexp_extract_all(text, '\S+')))
                           OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
                       - len(regexp_extract_all(text, '\S+'))) / {PACK_BUDGET})
                AS BIGINT) AS pack_id
    FROM documents
"""


def q_dedup_clusters(sf_dir: str, n_parts: int | None = None):
    """Near-dup CLUSTER assignment: connected components over the verified
    MinHash pair graph, each member doc labeled with its component's min
    doc_id (the canonical survivor) — the step that turns pairwise near-dup
    hits into keep/drop decisions.

    Distributed iterative min-label propagation (Pregel-style supersteps on
    Ray Data): each round co-partitions (edges ∪ labels) by hash(node),
    attaches the source label to every directed edge, then takes the min
    label per node via the map-side-combined aggregate.  Labels only ever
    decrease, so convergence == sum(labels) unchanged; rounds ≈ cluster
    diameter (tiny for dup clusters).  Per-round state (the label table,
    O(nodes-in-pairs) — far smaller than the corpus) is materialized so
    iterations don't re-execute prior lineage.  Oracle-backed: a recursive
    CTE over the exhaustive set-similarity pair join replays the
    components; pytest additionally pins equality with a driver-side
    union-find at sf0.001."""
    from .agg import grouped_aggregate

    import ray

    # pair-table CHECKPOINT, not object-store materialize: the verified
    # near-dup pair graph is written once per source fingerprint and
    # streamed back for each propagation round / later run — when minhash
    # and clustering are benched together, the expensive verify pipeline
    # runs once, and the graph lives on disk instead of pinned in memory
    ckpt = _checkpoint(
        sf_dir, "minhash_pairs", ["documents.parquet"],
        lambda path: q_minhash_near_dup(sf_dir)
        .select_columns(["doc_a", "doc_b"])
        .write_parquet(path),
    )
    pairs = ray.data.read_parquet(ckpt)
    # partition width sized to the GRAPH (usually tiny vs the corpus):
    # ~200k directed edges per partition; a 180-node graph runs as one task
    # per round while a 10^9-edge graph still spreads across the cluster
    n_pairs = pairs.count()
    P = int(n_parts or max(1, min(shuffle_blocks(), (2 * n_pairs) // 200_000 + 1)))

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy().astype(np.int64)
        b = batch.column("doc_b").to_numpy().astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({
            "part": pa.array(hash_part(src, P), type=pa.int64()),
            "src": pa.array(src, type=pa.int64()),
            "dst": pa.array(dst, type=pa.int64()),
        })

    # edges re-derive from the parquet checkpoint each round (a trivial
    # re-read + map) instead of pinning 2x the pair graph in the object store
    edges = pairs.map_batches(both_dirs, batch_format="pyarrow",
                              zero_copy_batch=True)

    def init_labels(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy().astype(np.int64)
        b = batch.column("doc_b").to_numpy().astype(np.int64)
        node = np.unique(np.concatenate([a, b]))
        return pa.table({
            "part": pa.array(hash_part(node, P), type=pa.int64()),
            "node": pa.array(node, type=pa.int64()),
            "label": pa.array(node, type=pa.int64()),
        })

    labels = grouped_aggregate(
        pairs.map_batches(init_labels, batch_format="pyarrow", zero_copy_batch=True),
        ["part", "node"],
        [("min", "label", "label")],
    ).materialize()

    def label_sum(ds) -> int:
        from ray.data.aggregate import Sum

        row = ds.aggregate(Sum("label", alias_name="s"))
        return int(row["s"]) if row and row.get("s") is not None else 0

    prev = label_sum(labels)
    for _round in range(64):  # diameter bound; dup clusters converge in 2-3
        def attach(group: pa.Table) -> pa.Table:
            is_edge = pc.is_valid(group.column("dst"))
            e = group.filter(is_edge)
            l = group.filter(pc.invert(is_edge))
            if e.num_rows == 0 or l.num_rows == 0:
                return pa.table({
                    "part": pa.array([], type=pa.int64()),
                    "node": pa.array([], type=pa.int64()),
                    "label": pa.array([], type=pa.int64()),
                })
            lut_nodes = l.column("node").to_numpy().astype(np.int64)
            lut_labels = l.column("label").to_numpy().astype(np.int64)
            order = np.argsort(lut_nodes)
            lut_nodes, lut_labels = lut_nodes[order], lut_labels[order]
            src = e.column("node").to_numpy().astype(np.int64)
            dst = e.column("dst").to_numpy().astype(np.int64)
            idx = np.searchsorted(lut_nodes, src)
            src_label = lut_labels[idx]  # every edge src has a label row here
            # messages: dst inherits src's label; re-key by hash(dst)
            return pa.table({
                "part": pa.array(hash_part(dst, P), type=pa.int64()),
                "node": pa.array(dst, type=pa.int64()),
                "label": pa.array(src_label, type=pa.int64()),
            })

        def edges_as_rows(batch: pa.Table) -> pa.Table:
            return pa.table({
                "part": batch.column("part"),
                "node": batch.column("src"),
                "label": pa.nulls(batch.num_rows, pa.int64()),
                "dst": batch.column("dst"),
            })

        def labels_as_rows(batch: pa.Table) -> pa.Table:
            return pa.table({
                "part": batch.column("part"),
                "node": batch.column("node"),
                "label": batch.column("label"),
                "dst": pa.nulls(batch.num_rows, pa.int64()),
            })

        msgs = group_map(
            edges.map_batches(edges_as_rows, batch_format="pyarrow",
                              zero_copy_batch=True)
            .union(labels.map_batches(labels_as_rows, batch_format="pyarrow",
                                      zero_copy_batch=True)),
            "part", attach,
        )
        labels = grouped_aggregate(
            msgs.union(labels), ["part", "node"], [("min", "label", "label")]
        ).materialize()
        cur = label_sum(labels)
        if cur == prev:
            break
        prev = cur

    return labels.select_columns(["node", "label"]).rename_columns(
        ["doc_id", "cluster_id"]
    )


def q_simhash(sf_dir: str):
    """64-bit SimHash per document over the planted corpus — oracle-backed:
    md5 token hashes are DuckDB's md5_number_lower, so SQL replays the
    per-bit majority exactly.  Vectorized per batch, elastic stateless
    tasks (no concurrency cap)."""
    from .dedup import simhash64_batch

    ds = _corpus_with_planted_dups(sf_dir)

    def stage(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "simhash": pa.array(
                simhash64_batch(batch.column("text").to_pylist()), type=pa.int64()
            ),
        })

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

# --------------------------------------------------------------------------
# bounded-window / non-equi-join / sampling / rollup operators
# --------------------------------------------------------------------------

ROLL_PRECEDING = 2  # ROWS BETWEEN 2 PRECEDING AND CURRENT ROW


def q_rolling_user_stats(sf_dir: str, n_parts: int | None = None):
    """Bounded ROWS-window aggregate per key (an operator Ray Data lacks
    natively): per user, events ordered by (ts, event_id), emit
    LAG(value,1,0.0), MAX(value) over the trailing 3-row window, and the
    window row count.  Hash-partitioned by user through ONE groupby; inside
    a partition every user's windows resolve with segmented numpy shifts —
    no per-group task, no global sort.  Every output is an exact copy /
    comparison of input doubles (no reassociated arithmetic), so the SQL
    window oracle matches bit-for-bit."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        ts_us = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "event_id": batch.column("event_id"),
            "value": batch.column("value"),
        })

    def windows(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        val = group.column("value").to_numpy()
        n = len(uid)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, val = uid[order], ts[order], eid[order], val[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg_id = np.cumsum(np.r_[True, uid[1:] != uid[:-1]]) - 1
        pos = np.arange(n) - starts[seg_id]  # row index within its user
        prev = np.empty(n)
        prev[0], prev[1:] = 0.0, val[:-1]
        prev[pos == 0] = 0.0  # LAG default at each segment start
        roll_max = val.copy()
        for k in (1, 2):
            shk = np.empty(n)
            shk[:k], shk[k:] = -np.inf, val[:-k]
            np.maximum(roll_max, np.where(pos >= k, shk, -np.inf), out=roll_max)
        return pa.table({
            "event_id": pa.array(eid, type=pa.int64()),
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pa.array(ts, type=pa.int64()),
            "prev_value": pa.array(prev, type=pa.float64()),
            "roll_max": pa.array(roll_max, type=pa.float64()),
            "roll_n": pa.array(np.minimum(pos + 1, ROLL_PRECEDING + 1), type=pa.int64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", windows, n_parts,
    )


SQL_ROLLING_USER_STATS = """
    SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
           LAG(value, 1, 0.0) OVER w AS prev_value,
           MAX(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll_max,
           CAST(COUNT(*) OVER (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT)
               AS roll_n
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


ATTRIB_WINDOW_US = 60 * 60 * 1_000_000  # trailing 1 hour


def q_attribution_counts(sf_dir: str, n_parts: int | None = None):
    """Bounded-interval RANGE JOIN (non-equi): every purchase counts the
    same user's views with v.ts in (p.ts - 1h, p.ts] — the attribution
    window.  Co-partitioned by hash(user_id) through one groupby; per
    partition the views sort once and every purchase resolves with TWO
    vectorized searchsorteds over packed (user, ts) keys — the
    bounded-interval sibling of the as-of join (left semantics: zero-view
    purchases stay, the index difference is already their count)."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        kind = batch.column("event_type")
        b = batch.filter(pc.is_in(kind, value_set=pa.array(["purchase", "view"])))
        uid = b.column("user_id").to_numpy().astype(np.int64)
        ts_us = b.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "event_id": b.column("event_id"),
            "is_purchase": pc.cast(pc.equal(b.column("event_type"), "purchase"), pa.int64()),
        })

    def count_group(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        isp = group.column("is_purchase").to_numpy().astype(bool)
        empty = pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "purchase_ts_us": pa.array([], type=pa.int64()),
            "n_views_1h": pa.array([], type=pa.int64()),
        })
        if not isp.any():
            return empty
        # pack (user, rebased ts) into one sortable int64 (asof-join scheme).
        # The lower probe rel-H may go negative: it then lands in the
        # PREVIOUS user's key space, below every key of this user — the
        # subtraction still counts exactly this user's views in the window,
        # provided rel.max() + H stays well under 2^42 (guarded).
        t0 = ts.min()
        rel = ts - t0
        if rel.max() + ATTRIB_WINDOW_US >= (1 << 42) or uid.max() >= (1 << 21):
            raise ValueError("attribution key packing out of range: widen the scheme")
        key = (uid << np.int64(42)) | rel
        vkey = np.sort(key[~isp])
        pk = key[isp]
        hi = np.searchsorted(vkey, pk, side="right")
        lo = np.searchsorted(vkey, pk - ATTRIB_WINDOW_US, side="right")
        sel = np.flatnonzero(isp)
        return pa.table({
            "event_id": pa.array(eid[sel], type=pa.int64()),
            "user_id": pa.array(uid[sel], type=pa.int64()),
            "purchase_ts_us": pa.array(ts[sel], type=pa.int64()),
            "n_views_1h": pa.array(hi - lo, type=pa.int64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", count_group, n_parts,
    )


SQL_ATTRIBUTION_COUNTS = """
    SELECT p.event_id, p.user_id,
           CAST(epoch_us(p.ts) AS BIGINT) AS purchase_ts_us,
           CAST(COUNT(v.event_id) AS BIGINT) AS n_views_1h
    FROM (SELECT * FROM events WHERE event_type = 'purchase') p
    LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') v
      ON v.user_id = p.user_id
     AND v.ts > p.ts - INTERVAL 1 HOUR AND v.ts <= p.ts
    GROUP BY p.event_id, p.user_id, p.ts
"""


_CANON_MASK21 = (1 << 21) - 1


def q_canonical_docs(sf_dir: str):
    """Priority dedup: per exact-duplicate group (md5(text)) keep the BEST
    doc — longest n_chars, min doc_id as tie-break — not merely the first.
    The keep decision is a distributed ARGMAX: (n_chars, -doc_id) packs
    into one int64 max-key that flows through the map-side-combined
    groupby, so no per-group sort and the shuffle carries
    O(groups x blocks) rows.  The ROW_NUMBER()=1 oracle replays it."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )

    def stage(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        nch = batch.column("n_chars").to_numpy().astype(np.int64)
        if len(did) and (did.max() >= (1 << 21) or nch.max() >= (1 << 40)):
            raise ValueError("argmax key packing out of range: widen the scheme")
        key = (nch << np.int64(21)) | (np.int64(_CANON_MASK21) - did)
        return pa.table({
            "text_hash": md5_batch(batch.column("text")),
            "key": pa.array(key, type=pa.int64()),
        })

    agg = grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["text_hash"],
        [("max", "key", "best_key"), ("count", None, "dup_count")],
    )

    def unpack(batch: pa.Table) -> pa.Table:
        key = batch.column("best_key").to_numpy().astype(np.int64)
        return pa.table({
            "text_hash": batch.column("text_hash"),
            "keep_doc_id": pa.array(
                np.int64(_CANON_MASK21) - (key & np.int64(_CANON_MASK21)),
                type=pa.int64(),
            ),
            "keep_n_chars": pa.array(key >> np.int64(21), type=pa.int64()),
            "dup_count": batch.column("dup_count"),
        })

    return agg.map_batches(unpack, batch_format="pyarrow", zero_copy_batch=True)


SQL_CANONICAL_DOCS = """
    WITH ranked AS (
        SELECT md5(text) AS text_hash, doc_id, n_chars,
               ROW_NUMBER() OVER (PARTITION BY md5(text)
                                  ORDER BY n_chars DESC, doc_id) AS rn,
               COUNT(*) OVER (PARTITION BY md5(text)) AS dup_count
        FROM documents)
    SELECT text_hash, doc_id AS keep_doc_id,
           CAST(n_chars AS BIGINT) AS keep_n_chars,
           CAST(dup_count AS BIGINT) AS dup_count
    FROM ranked WHERE rn = 1
"""


STRATA_RATES = {"en": 25}  # dominant language downsampled; others keep 50%
STRATA_DEFAULT = 50


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified (per-language) downsampling — the corpus
    rebalancing op: keep pct varies by stratum, the sample key is the same
    content-hash arithmetic as the train/test split (exact duplicates
    sample together, leakage-safe), and the whole op is a stateless
    vectorized map with NO shuffle."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        bucket = np.array(
            [int(hashlib.md5(t.encode()).hexdigest()[:8], 16) % 100 for t in texts],
            dtype=np.int64,
        )
        langs = batch.column("lang").to_pylist()
        rates = np.array([STRATA_RATES.get(l, STRATA_DEFAULT) for l in langs])
        keep = bucket < rates
        return pa.table({
            "doc_id": batch.column("doc_id").filter(pa.array(keep)),
            "lang": batch.column("lang").filter(pa.array(keep)),
            "bucket": pa.array(bucket[keep], type=pa.int64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


SQL_STRATIFIED_SAMPLE = """
    SELECT doc_id, lang, bucket FROM (
        SELECT doc_id, lang,
               CAST(CAST(('0x' || substring(md5(text), 1, 8)) AS BIGINT) % 100
                    AS BIGINT) AS bucket,
               CASE lang WHEN 'en' THEN 25 ELSE 50 END AS rate
        FROM documents)
    WHERE bucket < rate
"""


HIST_BIN_WIDTH = 25.0


def q_value_histogram(sf_dir: str):
    """Fixed-width binned aggregation (histogram): bin = floor(value/25),
    count + exact min/max per bin via the map-side-combined groupby.  The
    bin id is one double division + floor on both sides — bit-identical."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def binned(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        return pa.table({
            "bin": pa.array(np.floor(v / HIST_BIN_WIDTH).astype(np.int64),
                            type=pa.int64()),
            "value": batch.column("value"),
        })

    return grouped_aggregate(
        ds.map_batches(binned, batch_format="pyarrow", zero_copy_batch=True),
        ["bin"],
        [("count", None, "n"), ("min", "value", "min_value"),
         ("max", "value", "max_value")],
    )


SQL_VALUE_HISTOGRAM = """
    SELECT CAST(FLOOR(value / 25.0) AS BIGINT) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n,
           MIN(value) AS min_value, MAX(value) AS max_value
    FROM events GROUP BY 1
"""


def q_rollup_sales(sf_dir: str):
    """Hierarchical aggregate (GROUP BY ROLLUP): the coarser levels
    re-aggregate the FINEST level's output (|groups| rows) — the fact
    table is scanned exactly once no matter how many rollup levels.
    Integer-cents and integral-double sums keep every level bit-exact
    under reassociation; grouped-out columns take the 'ALL' marker on both
    sides (no NULL-vs-NULL ambiguity in the driver compare)."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)), pa.int64()
        )
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "l_quantity": batch.column("l_quantity"),
            "revenue_cents": cents,
        })

    level0 = grouped_aggregate(
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        [("sum", "l_quantity", "sum_qty"), ("sum", "revenue_cents", "revenue_cents"),
         ("count", None, "n_items")],
    ).materialize()  # |groups| rows — the partial both coarser levels reuse

    RESPEC = [("sum", "sum_qty", "sum_qty"),
              ("sum", "revenue_cents", "revenue_cents"),
              ("sum", "n_items", "n_items")]

    def all_linestatus(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": pa.array(["ALL"] * batch.num_rows, type=pa.string()),
            "sum_qty": batch.column("sum_qty"),
            "revenue_cents": batch.column("revenue_cents"),
            "n_items": batch.column("n_items"),
        })

    level1 = grouped_aggregate(level0, ["l_returnflag"], RESPEC).map_batches(
        all_linestatus, batch_format="pyarrow", zero_copy_batch=True
    )

    def const_key(batch: pa.Table) -> pa.Table:
        return batch.append_column("_all", pa.array([0] * batch.num_rows,
                                                    type=pa.int64()))

    def all_both(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": pa.array(["ALL"] * batch.num_rows, type=pa.string()),
            "l_linestatus": pa.array(["ALL"] * batch.num_rows, type=pa.string()),
            "sum_qty": batch.column("sum_qty"),
            "revenue_cents": batch.column("revenue_cents"),
            "n_items": batch.column("n_items"),
        })

    level2 = grouped_aggregate(
        level0.map_batches(const_key, batch_format="pyarrow", zero_copy_batch=True),
        ["_all"],
        RESPEC,
    ).map_batches(all_both, batch_format="pyarrow", zero_copy_batch=True)

    return level0.union(level1).union(level2)


SQL_ROLLUP_SALES = """
    SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
           COALESCE(l_linestatus, 'ALL') AS l_linestatus,
           SUM(l_quantity) AS sum_qty,
           CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT)
               AS revenue_cents,
           CAST(COUNT(*) AS BIGINT) AS n_items
    FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_order_fulfillment(sf_dir: str, n_parts: int | None = None):
    """Distributed LEFT OUTER join + aggregate: every order with its
    lineitem count and quantity sum, zero-filled when no lineitems exist.

    The join key is ~unique on the orders side, so a key-groupby would
    sort-shuffle O(rows) rows across 150k+ groups (measured 14s at sf0.1).
    Instead both sides co-partition by hash(key) through ONE small-domain
    groupby (P partitions), and inside each partition the lineitem rows
    aggregate with a vectorized lexsort+reduceat and attach to orders via
    searchsorted — same shape as the as-of join.  sum_qty sums integral
    doubles (quantities), exact in fp under any association, so the SQL
    sum matches bit-for-bit."""
    import ray
    P = n_partitions(n_parts)

    def order_side(batch: pa.Table) -> pa.Table:
        key = batch.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key, type=pa.int64()),
            "o_totalprice": batch.column("o_totalprice"),
            "qty": pa.nulls(batch.num_rows, pa.float64()),
        })

    def line_side(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(key, type=pa.int64()),
            "o_totalprice": pa.nulls(batch.num_rows, pa.float64()),
            "qty": batch.column("l_quantity"),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(order_side, batch_format="pyarrow", zero_copy_batch=True)
    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).map_batches(line_side, batch_format="pyarrow", zero_copy_batch=True)

    def join_group(group: pa.Table) -> pa.Table:
        is_order = pc.is_valid(group.column("o_totalprice"))
        o = group.filter(is_order)
        l = group.filter(pc.invert(is_order))
        okey = o.column("key").to_numpy().astype(np.int64)
        price = o.column("o_totalprice").to_numpy()
        lkey = l.column("key").to_numpy().astype(np.int64)
        qty = l.column("qty").to_numpy()
        order = np.argsort(lkey, kind="stable")
        lkey, qty = lkey[order], qty[order]
        starts = np.flatnonzero(np.r_[True, lkey[1:] != lkey[:-1]]) \
            if len(lkey) else np.empty(0, dtype=np.int64)
        uniq = lkey[starts] if len(lkey) else lkey
        cnts = (np.r_[starts[1:], len(lkey)] - starts) if len(lkey) else starts
        sums = np.add.reduceat(qty, starts) if len(lkey) else qty
        idx = np.searchsorted(uniq, okey)
        hit = (idx < len(uniq))
        hit[hit] &= uniq[idx[hit]] == okey[hit]
        n_items = np.zeros(len(okey), dtype=np.int64)
        sum_qty = np.zeros(len(okey), dtype=np.float64)
        n_items[hit] = cnts[idx[hit]]
        sum_qty[hit] = sums[idx[hit]]
        return pa.table({
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "o_totalprice": pa.array(price, type=pa.float64()),
            "n_items": pa.array(n_items, type=pa.int64()),
            "sum_qty": pa.array(sum_qty, type=pa.float64()),
        })

    return hash_exchange(orders.union(lines), "key", join_group, P)


SQL_ORDER_FULFILLMENT = """
    SELECT o.o_orderkey, o.o_totalprice,
           CAST(COUNT(l.l_orderkey) AS BIGINT) AS n_items,
           COALESCE(SUM(l.l_quantity), 0.0) AS sum_qty
    FROM orders o LEFT JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    GROUP BY o.o_orderkey, o.o_totalprice
"""


def q_distinct_users_per_type(sf_dir: str):
    """Exact distributed COUNT(DISTINCT) via hierarchical aggregation: the
    first level dedups (event_type, user_id) pairs with a map-side-combined
    groupby (the shuffle carries unique pairs per block, not rows), the
    second level counts the distinct pairs and sums the row counts per
    type.  No per-key set materialization anywhere."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    level1 = grouped_aggregate(
        ds, ["event_type", "user_id"], [("count", None, "n")],
    )
    return grouped_aggregate(
        level1, ["event_type"],
        [("count", None, "n_users"), ("sum", "n", "n_events")],
    )


SQL_DISTINCT_USERS_PER_TYPE = """
    SELECT event_type,
           CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
           CAST(COUNT(*) AS BIGINT) AS n_events
    FROM events GROUP BY event_type
"""


LONG_DOCS_Q = 0.9


def q_long_docs(sf_dir: str):
    """Global-percentile filter (the 'drop the short tail' curation op):
    the exact P90 of n_chars comes from a value-count aggregate (integer
    column — the histogram IS exact; driver reduces O(distinct values)
    rows), the threshold broadcasts into a stateless filter map.  Rank
    semantics = quantile_disc: element at 0-indexed rank ceil(q*n)-1."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    counts = grouped_aggregate(
        ds, ["n_chars"], [("count", None, "c")]
    ).to_pandas().sort_values("n_chars")
    n = int(counts["c"].sum())
    k = int(np.ceil(LONG_DOCS_Q * n)) - 1
    cum = counts["c"].cumsum().to_numpy()
    thr = int(counts["n_chars"].to_numpy()[np.searchsorted(cum, k, side="right")])

    def keep_long(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("n_chars"), thr))

    return ds.map_batches(keep_long, batch_format="pyarrow", zero_copy_batch=True)


SQL_LONG_DOCS = """
    SELECT doc_id, n_chars FROM documents
    WHERE n_chars >= (SELECT quantile_disc(n_chars, 0.9) FROM documents)
"""


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_user_event_pivot(sf_dir: str):
    """Pivot / conditional aggregation: one row per user with a count
    column per event type.  The pivot happens INSIDE the map stage
    (vectorized equality -> int indicator columns), so the groupby is a
    plain map-side-combined sum — no per-type scan, no post-join, and the
    shuffle carries one row per (user x block).  Oracle: COUNT(*) FILTER."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def indicators(batch: pa.Table) -> pa.Table:
        cols = {"user_id": batch.column("user_id")}
        kind = batch.column("event_type")
        for t in PIVOT_TYPES:
            cols[f"n_{t}"] = pc.cast(pc.equal(kind, t), pa.int64())
        return pa.table(cols)

    return grouped_aggregate(
        ds.map_batches(indicators, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("sum", f"n_{t}", f"n_{t}") for t in PIVOT_TYPES]
        + [("count", None, "n_total")],
    )


SQL_USER_EVENT_PIVOT = """
    SELECT user_id,
           CAST(COUNT(*) FILTER (event_type = 'click')    AS BIGINT) AS n_click,
           CAST(COUNT(*) FILTER (event_type = 'error')    AS BIGINT) AS n_error,
           CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
           CAST(COUNT(*) FILTER (event_type = 'signup')   AS BIGINT) AS n_signup,
           CAST(COUNT(*) FILTER (event_type = 'view')     AS BIGINT) AS n_view,
           CAST(COUNT(*) AS BIGINT) AS n_total
    FROM events GROUP BY user_id
"""


GROUP_QUANTILE_Q = 0.5


def q_median_value_per_type(sf_dir: str):
    """Per-GROUP exact quantile (median value per event type): a value
    isn't integer here, so the engine runs the two-pass histogram
    selection PER KEY — pass 1 reduces per-(key, batch) count/min/max
    partials, pass 2 per-key 512-bin histograms (one partial vector per
    key x batch; driver reduces O(keys x blocks) rows), then only the
    target bin's rows are pulled per key (expected n_k/512).  Rank
    semantics = quantile_disc, same as value_quantiles."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    B = 512

    def stats_batch(batch: pa.Table) -> pa.Table:
        gb = pa.table({
            "event_type": batch.column("event_type"),
            "v": batch.column("value"),
        }).group_by(["event_type"]).aggregate([("v", "count"), ("v", "min"), ("v", "max")])
        return pa.table({
            "event_type": gb.column("event_type"),
            "n": pc.cast(gb.column("v_count"), pa.int64()),
            "lo": gb.column("v_min"),
            "hi": gb.column("v_max"),
        })

    st = (
        ds.map_batches(stats_batch, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("event_type")
        .agg(n=("n", "sum"), lo=("lo", "min"), hi=("hi", "max"))
    )
    keys = sorted(st.index)
    kidx = {k: i for i, k in enumerate(keys)}
    n_k = st["n"].reindex(keys).to_numpy()
    lo_k = st["lo"].reindex(keys).to_numpy()
    hi_k = st["hi"].reindex(keys).to_numpy()
    rank_k = np.ceil(GROUP_QUANTILE_Q * n_k).astype(np.int64) - 1
    scale_k = np.where(hi_k > lo_k, B / (hi_k - lo_k), 0.0)

    def bin_of(key_ids: np.ndarray, v: np.ndarray) -> np.ndarray:
        rel = np.maximum(v - lo_k[key_ids], 0.0) * scale_k[key_ids]
        return np.minimum(rel.astype(np.int64), B - 1)

    key_set = pa.array(keys, type=pa.string())

    def key_ids_of(col: pa.ChunkedArray) -> np.ndarray:
        # vectorized key -> dense id (index_in is an arrow C++ kernel)
        return pc.index_in(col, value_set=key_set).to_numpy().astype(np.int64)

    def hist_batch(batch: pa.Table) -> pa.Table:
        ki = key_ids_of(batch.column("event_type"))
        v = batch.column("value").to_numpy()
        h = np.bincount(ki * B + bin_of(ki, v), minlength=len(keys) * B)
        return pa.table({"hist": pa.array([h], type=pa.list_(pa.int64()))})

    parts = ds.map_batches(hist_batch, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    hist = np.zeros(len(keys) * B, dtype=np.int64)
    for row in parts["hist"]:
        hist += np.asarray(row, dtype=np.int64)
    hist = hist.reshape(len(keys), B)
    cums = np.concatenate([np.zeros((len(keys), 1), dtype=np.int64),
                           np.cumsum(hist, axis=1)], axis=1)
    tbin_k = np.array(
        [int(np.searchsorted(cums[i], rank_k[i], side="right") - 1)
         for i in range(len(keys))], dtype=np.int64)

    def pick(batch: pa.Table) -> pa.Table:
        ki = key_ids_of(batch.column("event_type"))
        v = batch.column("value").to_numpy()
        m = bin_of(ki, v) == tbin_k[ki]
        return pa.table({
            "key_id": pa.array(ki[m], type=pa.int64()),
            "value": pa.array(v[m], type=pa.float64()),
        })

    got = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    out = []
    for k in keys:
        i = kidx[k]
        vals = np.sort(got.loc[got["key_id"] == i, "value"].to_numpy())
        out.append(float(vals[rank_k[i] - cums[i][tbin_k[i]]]))
    return pa.table({
        "event_type": pa.array(keys, type=pa.string()),
        "median_value": pa.array(out, type=pa.float64()),
    })


SQL_MEDIAN_VALUE_PER_TYPE = """
    SELECT event_type, quantile_disc(value, 0.5) AS median_value
    FROM events GROUP BY event_type
"""


HOUR_US = 3600 * 1_000_000


def q_view_only_hours(sf_dir: str):
    """Distributed set operation (EXCEPT): hours that saw a 'view' event
    but no 'purchase'.  Per-batch conditional presence flags collapse
    through the map-side-combined groupby to one (saw_view, saw_purchase)
    row per hour bucket — EXCEPT/INTERSECT/UNION all fall out of the same
    flag algebra without materializing either distinct set."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    def flags(batch: pa.Table) -> pa.Table:
        kind = batch.column("event_type")
        keep = pc.is_in(kind, value_set=pa.array(["purchase", "view"]))
        b = batch.filter(keep)
        ts_us = b.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "hour_us": pa.array(ts_us // HOUR_US * HOUR_US, type=pa.int64()),
            "saw_view": pc.cast(pc.equal(b.column("event_type"), "view"), pa.int64()),
            "saw_purchase": pc.cast(
                pc.equal(b.column("event_type"), "purchase"), pa.int64()
            ),
        })

    agg = grouped_aggregate(
        ds.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True),
        ["hour_us"],
        [("max", "saw_view", "saw_view"), ("max", "saw_purchase", "saw_purchase")],
    )

    def except_(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch.column("saw_view"), 1),
            pc.equal(batch.column("saw_purchase"), 0),
        )
        return batch.filter(keep).select(["hour_us"])

    return agg.map_batches(except_, batch_format="pyarrow", zero_copy_batch=True)


SQL_VIEW_ONLY_HOURS = """
    SELECT CAST(epoch_us(date_trunc('hour', ts)) AS BIGINT) AS hour_us
    FROM events WHERE event_type = 'view'
    EXCEPT
    SELECT CAST(epoch_us(date_trunc('hour', ts)) AS BIGINT)
    FROM events WHERE event_type = 'purchase'
"""


def q_revenue_by_region(sf_dir: str):
    """Join chain region ⨝ nation ⨝ customer ⨝ orders, split by scale
    class: nation/region are bounded dims (a 25-entry nationkey→r_name
    lookup broadcast into the stage closure), while CUSTOMER is a
    fact-scaled table — it attaches through the broadcast lookup
    (pipelines/factjoin.attach_cust_nationkey).  One pass over orders; the
    final shuffle is never wider than |regions| x blocks."""
    from .agg import grouped_aggregate
    from .factjoin import attach_cust_nationkey

    import ray
    region = pq.read_table(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nkey = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nreg = nation.column("n_regionkey").to_numpy().astype(np.int64)
    rkey = region.column("r_regionkey").to_numpy().astype(np.int64)
    rname = np.asarray(region.column("r_name").to_pylist(), dtype=object)
    order_n = np.argsort(nkey)
    order_r = np.argsort(rkey)
    nk_sorted = nkey[order_n]
    nk_rname = rname[order_r][np.searchsorted(rkey[order_r], nreg[order_n])]
    rname_arr = pa.array(list(nk_rname), type=pa.string())

    def fact(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64())
        return pa.table({
            "key": pc.cast(batch.column("o_custkey"), pa.int64()),
            "revenue_cents": cents,
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(fact, batch_format="pyarrow", zero_copy_batch=True)
    joined = attach_cust_nationkey(sf_dir, orders, ["revenue_cents"])

    def name_region(batch: pa.Table) -> pa.Table:
        nk = batch.column("nk").to_numpy().astype(np.int64)
        # clip so an out-of-domain key raises the FK message, not IndexError
        pos = np.clip(np.searchsorted(nk_sorted, nk), 0,
                      max(len(nk_sorted) - 1, 0))
        if len(nk) and (not len(nk_sorted)
                        or not np.all(nk_sorted[pos] == nk)):
            raise ValueError("FK violation: c_nationkey not in nation")
        return pa.table({
            "r_name": rname_arr.take(pa.array(pos)),
            "revenue_cents": batch.column("revenue_cents"),
        })

    ds = joined.map_batches(name_region, batch_format="pyarrow",
                            zero_copy_batch=True)
    return grouped_aggregate(
        ds, ["r_name"],
        [("sum", "revenue_cents", "revenue_cents"), ("count", None, "n_orders")],
    )


SQL_REVENUE_BY_REGION = """
    SELECT r.r_name,
           CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT)
               AS revenue_cents,
           CAST(COUNT(*) AS BIGINT) AS n_orders
    FROM orders o
    JOIN customer c ON c.c_custkey = o.o_custkey
    JOIN nation n ON n.n_nationkey = c.c_nationkey
    JOIN region r ON r.r_regionkey = n.n_regionkey
    GROUP BY r.r_name
"""


CHUNK_TOKENS = 64
CHUNK_STRIDE = 48  # 16-token overlap between consecutive chunks


def q_doc_chunks(sf_dir: str):
    """Document chunking (the sequence-windowing op of a training
    pipeline): each doc explodes into fixed-size token windows with
    overlap — a one-to-many flat map, vectorized with repeat/arange (no
    per-doc Python).  n_chunks = ceil(max(n_tokens - overlap, 1) / stride)
    so every token is covered and a doc shorter than one window still
    yields one chunk.  Exact integer arithmetic on both sides."""
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    overlap = CHUNK_TOKENS - CHUNK_STRIDE

    def chunk(batch: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(batch.column("text"), pattern=r"\S+"), pa.int64()
        ).to_numpy()
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        n_chunks = -(-np.maximum(n - overlap, 1) // CHUNK_STRIDE)
        doc_rep = np.repeat(did, n_chunks)
        n_rep = np.repeat(n, n_chunks)
        starts = np.zeros(int(n_chunks.sum()), dtype=np.int64)
        seg = np.zeros(len(did), dtype=np.int64)
        np.cumsum(n_chunks[:-1], out=seg[1:])
        idx = np.arange(int(n_chunks.sum()), dtype=np.int64) - seg[np.repeat(
            np.arange(len(did)), n_chunks)]
        starts = idx * CHUNK_STRIDE
        return pa.table({
            "doc_id": pa.array(doc_rep, type=pa.int64()),
            "chunk_idx": pa.array(idx, type=pa.int64()),
            "start_tok": pa.array(starts, type=pa.int64()),
            "end_tok": pa.array(np.minimum(starts + CHUNK_TOKENS, n_rep),
                                type=pa.int64()),
        })

    return ds.map_batches(chunk, batch_format="pyarrow", zero_copy_batch=True)


SQL_DOC_CHUNKS = r"""
    WITH t AS (
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n
        FROM documents
    )
    SELECT doc_id, CAST(k AS BIGINT) AS chunk_idx,
           CAST(k * 48 AS BIGINT) AS start_tok,
           CAST(LEAST(k * 48 + 64, n) AS BIGINT) AS end_tok
    FROM t, LATERAL (
        SELECT unnest(generate_series(
            0, CAST(CEIL(GREATEST(n - 16, 1) / 48.0) AS BIGINT) - 1)) AS k
    )
"""


HLL_P = 12  # 4096 registers -> ~1.6% typical relative error
_HLL_T_MASK = (1 << (64 - HLL_P)) - 1  # low 52 bits = the rho window


def _hll_md5_reg_rho(uids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register, rho) per uid via the repo-wide SQL-replayable hash:
    ``h = md5_number_lower(str(uid))`` (lower 8 digest bytes, little
    endian), register = top HLL_P bits, rho = leading-zero count of the
    remaining 52-bit window + 1 = 53 - bit_length(h & T_MASK).  md5 runs
    once per DISTINCT uid in the batch (user domain is bounded; the
    ``feature_hash`` convention), then scatters through the inverse."""
    import hashlib

    uniq, inv = np.unique(uids, return_inverse=True)
    reg_u = np.empty(len(uniq), dtype=np.int64)
    rho_u = np.empty(len(uniq), dtype=np.int64)
    for i, u in enumerate(uniq):
        h = int.from_bytes(
            hashlib.md5(str(int(u)).encode()).digest()[8:], "little")
        reg_u[i] = h >> (64 - HLL_P)
        rho_u[i] = (64 - HLL_P) + 1 - (h & _HLL_T_MASK).bit_length()
    return reg_u[inv], rho_u[inv]


def _hll_estimate_exact(regs: np.ndarray) -> int:
    """Integer-exact HLL estimate, SQL-replayable to the last bit.

    The harmonic sum is kept as the exact integer ``s_int = sum(2^(64 -
    r_j))`` (Python big int; empty register contributes 2^64) and the
    bias constant is used in its RATIONAL form ``alpha = 7213*m /
    (10*(1000m + 1079))``, so the raw estimate is the big-int ratio
    ``e_num/e_den = 7213*m^3*2^64 / (10*(1000m+1079)*s_int)`` rounded
    half-up — every step replays in DuckDB HUGEINT arithmetic.  The
    linear-counting small-range branch (``E <= 2.5m`` and empty
    registers exist — decided on the exact ratio) is the one float op:
    ``floor(m*ln(m/zeros) + 0.5)`` with libm ``log`` on both sides."""
    import math

    m = len(regs)
    zeros = int((regs == 0).sum())
    cnt = np.bincount(regs.astype(np.int64), minlength=(64 - HLL_P) + 2)
    s_int = sum(int(c) << (64 - r) for r, c in enumerate(cnt) if c)
    e_num = (7213 * m ** 3) << 64
    e_den = 10 * (1000 * m + 1079) * s_int
    if zeros > 0 and 2 * e_num <= 5 * m * e_den:
        return int(math.floor(m * math.log(m / zeros) + 0.5))
    return (2 * e_num + e_den) // (2 * e_den)


def _sql_hll_est(where: str) -> str:
    """Scalar-subquery SQL replaying ``_hll_md5_reg_rho`` +
    ``_hll_estimate_exact`` over ``events.user_id`` rows matching
    ``where`` — bit-exact vs the engine (HUGEINT ratio; libm LN in the
    linear-counting branch)."""
    m = 1 << HLL_P
    e_num = (7213 * m ** 3) << 64
    den_c = 10 * (1000 * m + 1079)
    shift = 64 - HLL_P
    return f"""(
      WITH hh AS (
        SELECT md5_number_lower(CAST(user_id AS VARCHAR)) AS h
        FROM events WHERE {where}
      ), rr AS (
        SELECT CAST(h >> {shift} AS BIGINT) AS reg,
               CAST(CASE WHEN (h & {_HLL_T_MASK}) = 0 THEN {shift + 1}
                    ELSE {shift + 1}
                         - length(bin(CAST(h & {_HLL_T_MASK} AS BIGINT)))
                    END AS BIGINT) AS rho
        FROM hh
      ), regs AS (
        SELECT reg, MAX(rho) AS rho FROM rr GROUP BY 1
      ), est AS (
        SELECT {m} - COUNT(*) AS zeros,
               COALESCE(SUM(CAST(1 AS HUGEINT)
                            << (64 - CAST(rho AS INT))), 0)
                 + CAST({m} - COUNT(*) AS HUGEINT)
                   * {1 << 64} AS s_int
        FROM regs
      )
      SELECT CASE
        WHEN zeros > 0 AND 2 * {e_num} <= 5 * {m} * ({den_c} * s_int)
        THEN CAST(FLOOR({m} * LN({m}.0 / zeros) + 0.5) AS BIGINT)
        ELSE CAST((2 * {e_num} + {den_c} * s_int)
                  // (2 * {den_c} * s_int) AS BIGINT)
      END FROM est
    )"""


def q_approx_distinct_users(sf_dir: str):
    """Mergeable-sketch aggregation (HyperLogLog): per-batch PARTIAL
    sketches (4096 registers per key) merge with elementwise max through
    one groupby — the shuffle carries a constant-size row per (key x
    block) no matter the cardinality, the pattern that replaces exact
    COUNT(DISTINCT) when the distinct set itself no longer fits a
    shuffle.  Classic HLL estimator with the linear-counting small-range
    correction.  The hash chain is the SQL-replayable md5 convention and
    the estimator is integer-exact (``_hll_estimate_exact``), so the
    oracle replays the full register array and estimate value-exactly —
    the sketch is approximate vs COUNT(DISTINCT), but deterministic and
    therefore oracle-checkable (the ``cmsketch_word_counts`` treatment;
    pytest additionally pins relative error vs the exact count)."""
    import ray
    m = 1 << HLL_P

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        # dictionary-encode keys (arrow C++ kernel) -> dense group ids;
        # one flat scatter-max builds every group's registers at once
        de = batch.column("event_type").combine_chunks().dictionary_encode()
        gid = de.indices.to_numpy().astype(np.int64)
        g = len(de.dictionary)
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        reg, rho = _hll_md5_reg_rho(uid)
        regs = np.zeros(g * m, dtype=np.int64)
        np.maximum.at(regs, gid * m + reg, rho)
        return pa.table({
            "event_type": de.dictionary,
            "regs": pa.array(list(regs.reshape(g, m)), type=pa.list_(pa.int64())),
        })

    def merge_estimate(group: pa.Table) -> pa.Table:
        regs = np.zeros(m, dtype=np.int64)
        for row in group.column("regs").to_pylist():
            np.maximum(regs, np.asarray(row, dtype=np.int64), out=regs)
        return pa.table({
            "event_type": pa.array([group.column("event_type")[0].as_py()]),
            "approx_users": pa.array([_hll_estimate_exact(regs)],
                                     type=pa.int64()),
        })

    return group_map(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "event_type", merge_estimate,
    )


def _sql_approx_distinct_users() -> str:
    return f"""
    SELECT event_type,
           {_sql_hll_est("event_type = t.event_type")} AS approx_users
    FROM (SELECT DISTINCT event_type FROM events) t
    """


# --------------------------------------------------------------------------
# round-2 continuation batch 2: self-join co-occurrence, funnel, CUBE,
# tile pyramid, distributed exact moments, grouped string aggregation
# --------------------------------------------------------------------------

def q_part_pair_counts(sf_dir: str, n_parts: int | None = None):
    """Self-join co-occurrence: for every pair of lineitem rows in the same
    order with ``part_a < part_b``, count the pair.  Market-basket shape.

    Distributed form: co-partition lineitem by ``hash(l_orderkey)`` (an
    order's rows always land together), generate the intra-order pairs
    VECTORIZED inside each partition (per-order fan-out is tiny — avg ~4
    rows/order — so pair volume is ~O(rows)), then a map-side-combined
    groupby on (part_a, part_b) counts pairs globally.  No O(rows) sort
    shuffle on the ~unique order key anywhere."""
    import ray

    def to_parts(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "okey": pa.array(key, type=pa.int64()),
            "pkey": batch.column("l_partkey"),
        })

    def pairs_in_partition(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        pkey = group.column("pkey").to_numpy().astype(np.int64)
        if len(okey) == 0:
            return pa.table({
                "part_a": pa.array([], type=pa.int64()),
                "part_b": pa.array([], type=pa.int64()),
                "n_pairs": pa.array([], type=pa.int64()),
            })
        order = np.lexsort((pkey, okey))
        okey, pkey = okey[order], pkey[order]
        # segment start index for each row's order group
        new_seg = np.r_[True, okey[1:] != okey[:-1]]
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(okey)), 0))
        # row j pairs with every earlier row i of its segment (i < j);
        # concatenated-ranges trick: i = local offset + segment start
        cnt = np.arange(len(okey)) - seg_start          # pairs with j as 2nd elem
        j = np.repeat(np.arange(len(okey)), cnt)
        total = int(cnt.sum())
        csum = np.r_[0, np.cumsum(cnt)]
        i = np.arange(total) - np.repeat(csum[:-1], cnt) + np.repeat(seg_start, cnt)
        pa_, pb_ = pkey[i], pkey[j]
        keep = pa_ != pb_  # strict part_a < part_b excludes equal-part row pairs
        lo = np.minimum(pa_[keep], pb_[keep])
        hi = np.maximum(pa_[keep], pb_[keep])
        # partition-local combine so the global shuffle carries unique pairs
        t = pa.table({"part_a": lo, "part_b": hi}).group_by(
            ["part_a", "part_b"]).aggregate([("part_a", "count")])
        return pa.table({
            "part_a": t.column("part_a"),
            "part_b": t.column("part_b"),
            "n_pairs": pc.cast(t.column("part_a_count"), pa.int64()),
        })

    from .agg import grouped_aggregate

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).map_batches(to_parts, batch_format="pyarrow", zero_copy_batch=True)
    pairs = hash_exchange(ds, "okey", pairs_in_partition, n_parts)
    from .agg import grouped_aggregate

    return grouped_aggregate(pairs, ["part_a", "part_b"],
                             [("sum", "n_pairs", "n_pairs")])


SQL_PART_PAIR_COUNTS = """
    SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
           CAST(COUNT(*) AS BIGINT) AS n_pairs
    FROM lineitem a JOIN lineitem b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    GROUP BY 1, 2
"""


def q_conversion_funnel(sf_dir: str):
    """Ordered-sequence (funnel) detection: users whose FIRST view precedes
    their FIRST click precedes their FIRST purchase.  Two map-side-combined
    aggregations: (1) per-user min timestamp per stage (sentinel-encoded so
    min() is null-free), (2) a constant-size count reduce over the per-user
    rows.  The shuffle carries one row per (user x block), then one row per
    block — nothing scales with event volume."""
    from .agg import grouped_aggregate

    import ray
    SENT = np.int64(2**62)
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )

    def stage_cols(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        et = batch.column("event_type")
        out = {"user_id": batch.column("user_id")}
        for name in ("view", "click", "purchase"):
            is_stage = pc.equal(et, name).to_numpy(zero_copy_only=False)
            out[f"t_{name}"] = pa.array(
                np.where(is_stage, ts, SENT), type=pa.int64())
        return pa.table(out)

    per_user = grouped_aggregate(
        ds.map_batches(stage_cols, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("min", "t_view", "tv"), ("min", "t_click", "tc"),
         ("min", "t_purchase", "tp")],
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        tv = batch.column("tv").to_numpy()
        tc = batch.column("tc").to_numpy()
        tp = batch.column("tp").to_numpy()
        has_v = tv < SENT
        vc = has_v & (tc < SENT) & (tv < tc)
        vcp = vc & (tp < SENT) & (tc < tp)
        return pa.table({
            "_k": pa.array([0], type=pa.int64()),
            "n_view": pa.array([int(has_v.sum())], type=pa.int64()),
            "n_view_click": pa.array([int(vc.sum())], type=pa.int64()),
            "n_view_click_purchase": pa.array([int(vcp.sum())], type=pa.int64()),
        })

    def drop_key(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["_k"])

    return grouped_aggregate(
        per_user.map_batches(count_partial, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["_k"],
        [("sum", "n_view", "n_view"),
         ("sum", "n_view_click", "n_view_click"),
         ("sum", "n_view_click_purchase", "n_view_click_purchase")],
    ).map_batches(drop_key, batch_format="pyarrow", zero_copy_batch=True)


SQL_CONVERSION_FUNNEL = """
    WITH m AS (
      SELECT user_id,
             MIN(ts) FILTER (WHERE event_type = 'view')     AS tv,
             MIN(ts) FILTER (WHERE event_type = 'click')    AS tc,
             MIN(ts) FILTER (WHERE event_type = 'purchase') AS tp
      FROM events GROUP BY user_id)
    SELECT CAST(COUNT(*) FILTER (WHERE tv IS NOT NULL) AS BIGINT) AS n_view,
           CAST(COUNT(*) FILTER (WHERE tv IS NOT NULL AND tc IS NOT NULL
                                 AND tv < tc) AS BIGINT) AS n_view_click,
           CAST(COUNT(*) FILTER (WHERE tv IS NOT NULL AND tc IS NOT NULL
                                 AND tp IS NOT NULL AND tv < tc AND tc < tp)
                AS BIGINT) AS n_view_click_purchase
    FROM m
"""


def _sales_level0(sf_dir: str):
    """Shared finest-level (returnflag x linestatus) sales aggregate — the
    one fact-table pass that ROLLUP and CUBE levels re-aggregate."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)), pa.int64()
        )
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "l_quantity": batch.column("l_quantity"),
            "revenue_cents": cents,
        })

    return grouped_aggregate(
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        [("sum", "l_quantity", "sum_qty"), ("sum", "revenue_cents", "revenue_cents"),
         ("count", None, "n_items")],
    )


_SALES_RESPEC = [("sum", "sum_qty", "sum_qty"),
                 ("sum", "revenue_cents", "revenue_cents"),
                 ("sum", "n_items", "n_items")]


def _sales_mask_level(level0, keep: list[str]):
    """Re-aggregate the finest sales level with the non-kept dimension(s)
    masked to the 'ALL' marker."""
    from .agg import grouped_aggregate

    dims = ["l_returnflag", "l_linestatus"]

    def mask(batch: pa.Table) -> pa.Table:
        cols = {}
        for d in dims:
            cols[d] = (batch.column(d) if d in keep
                       else pa.array(["ALL"] * batch.num_rows, type=pa.string()))
        for c in ("sum_qty", "revenue_cents", "n_items"):
            cols[c] = batch.column(c)
        return pa.table(cols)

    masked = level0.map_batches(mask, batch_format="pyarrow", zero_copy_batch=True)
    key = keep if keep else ["l_returnflag", "l_linestatus"]
    out = grouped_aggregate(masked, key, _SALES_RESPEC)
    if keep == ["l_returnflag"]:
        def put_back(batch: pa.Table) -> pa.Table:
            return pa.table({
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": pa.array(["ALL"] * batch.num_rows, type=pa.string()),
                "sum_qty": batch.column("sum_qty"),
                "revenue_cents": batch.column("revenue_cents"),
                "n_items": batch.column("n_items"),
            })
        out = out.map_batches(put_back, batch_format="pyarrow", zero_copy_batch=True)
    elif keep == ["l_linestatus"]:
        def put_back2(batch: pa.Table) -> pa.Table:
            return pa.table({
                "l_returnflag": pa.array(["ALL"] * batch.num_rows, type=pa.string()),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": batch.column("sum_qty"),
                "revenue_cents": batch.column("revenue_cents"),
                "n_items": batch.column("n_items"),
            })
        out = out.map_batches(put_back2, batch_format="pyarrow", zero_copy_batch=True)
    return out


def q_cube_sales(sf_dir: str):
    """GROUP BY CUBE(returnflag, linestatus): all four grouping sets from
    ONE fact-table pass — the three coarser levels re-aggregate the
    |groups|-row finest level, so adding grouping sets costs nothing at
    scale.  Same integer-cents exactness discipline as rollup_sales."""
    level0 = _sales_level0(sf_dir).materialize()  # |groups| rows, reused 3x
    lvl_rf = _sales_mask_level(level0, ["l_returnflag"])
    lvl_ls = _sales_mask_level(level0, ["l_linestatus"])
    lvl_all = _sales_mask_level(level0, [])
    return level0.union(lvl_rf).union(lvl_ls).union(lvl_all)


SQL_CUBE_SALES = """
    SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
           COALESCE(l_linestatus, 'ALL') AS l_linestatus,
           SUM(l_quantity) AS sum_qty,
           CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT)
               AS revenue_cents,
           CAST(COUNT(*) AS BIGINT) AS n_items
    FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
"""


def q_tile_pyramid(sf_dir: str):
    """Hierarchical tile rollup (a tile pyramid): per-tile label counts at
    the render resolution, then each coarser zoom level re-aggregates the
    PREVIOUS level by morton parent (`cell_parent` bit-shift — no
    re-reading, no re-labeling, no coordinate recompute).  The classic
    z -> z-1 pyramid build: every level after the finest costs
    O(tiles), not O(points)."""
    from ..config import DEFAULT_TILE_RES
    from ..stages.cells import cell_parent
    from .agg import grouped_aggregate

    ds = _dyadic_labeled(sf_dir, CELL_COLUMNS)
    level = grouped_aggregate(
        ds, ["tile_id"], [("count", None, "n_points")]
    ).materialize()  # |tiles at z| rows

    def with_res(res):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({
                "res": pa.array([res] * batch.num_rows, type=pa.int64()),
                "tile_id": batch.column("tile_id"),
                "n_points": batch.column("n_points"),
            })
        return f

    out = level.map_batches(with_res(DEFAULT_TILE_RES), batch_format="pyarrow",
                            zero_copy_batch=True)
    for res in range(DEFAULT_TILE_RES - 1, DEFAULT_TILE_RES - 3, -1):
        def reparent(batch: pa.Table, res=res) -> pa.Table:
            tid = batch.column("tile_id").to_numpy().astype(np.int64)
            return pa.table({
                "tile_id": pa.array(cell_parent(tid, res), type=pa.int64()),
                "n_points": batch.column("n_points"),
            })
        level = grouped_aggregate(
            level.map_batches(reparent, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["tile_id"],
            [("sum", "n_points", "n_points")],
        ).materialize()
        out = out.union(level.map_batches(with_res(res), batch_format="pyarrow",
                                          zero_copy_batch=True))
    return out


def _sql_tile_pyramid() -> str:
    from ..config import DEFAULT_TILE_RES

    selects = []
    for res in range(DEFAULT_TILE_RES, DEFAULT_TILE_RES - 3, -1):
        tile = sql_cell_id_expr("label_x", "label_y", res)
        selects.append(
            f"SELECT CAST({res} AS BIGINT) AS res, {tile} AS tile_id, "
            f"CAST(COUNT(*) AS BIGINT) AS n_points FROM labels GROUP BY 1, 2"
        )
    u = " UNION ALL ".join(selects)
    return f"WITH labels AS ({_sql_dyadic_labels_cte()}) {u}"


def q_price_discount_corr(sf_dir: str):
    """Distributed EXACT second-moment statistics + Pearson correlation of
    extendedprice (cents) vs discount (percent units).  Per-batch partials
    accumulate the six moment sums (n, Σx, Σy, Σx², Σy², Σxy) as EXACT
    arbitrary-precision integers (int64 per-row products, Python-int
    across chunk sums — Σx² overflows int64 past ~80k rows/batch),
    shipped as decimal strings; one constant-size final reduce merges them
    and derives corr.  The moment row is bit-exact vs the SQL HUGEINT
    sums; corr is reported as integer microunits so the driver's value
    hash is float-rounding-proof."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice", "l_discount"]
    )

    CHUNK = 50_000  # int64-safe: 50k rows x (1.1e7 cents)^2 < 2^63

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
                    pa.int64()).to_numpy()
        y = pc.cast(pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
                    pa.int64()).to_numpy()
        n = len(x)
        sx = sy = sxx = syy = sxy = 0
        for s in range(0, n, CHUNK):
            cx, cy = x[s:s + CHUNK], y[s:s + CHUNK]
            sx += int(cx.sum()); sy += int(cy.sum())
            sxx += int((cx * cx).sum()); syy += int((cy * cy).sum())
            sxy += int((cx * cy).sum())
        return pa.table({
            "_k": pa.array([0], type=pa.int64()),
            "n": pa.array([n], type=pa.int64()),
            "sx": pa.array([str(sx)]), "sy": pa.array([str(sy)]),
            "sxx": pa.array([str(sxx)]), "syy": pa.array([str(syy)]),
            "sxy": pa.array([str(sxy)]),
        })

    def final(group: pa.Table) -> pa.Table:
        n = int(pc.sum(group.column("n")).as_py())
        sx = sum(int(v) for v in group.column("sx").to_pylist())
        sy = sum(int(v) for v in group.column("sy").to_pylist())
        sxx = sum(int(v) for v in group.column("sxx").to_pylist())
        syy = sum(int(v) for v in group.column("syy").to_pylist())
        sxy = sum(int(v) for v in group.column("sxy").to_pylist())
        # identical double expression to the SQL oracle (same op order)
        num = float(n) * float(sxy) - float(sx) * float(sy)
        den = np.sqrt(float(n) * float(sxx) - float(sx) * float(sx)) * \
            np.sqrt(float(n) * float(syy) - float(sy) * float(sy))
        corr_micro = int(np.round(num / den * 1e6))
        return pa.table({
            "n": pa.array([n], type=pa.int64()),
            "sx": pa.array([str(sx)]), "sy": pa.array([str(sy)]),
            "sxx": pa.array([str(sxx)]), "syy": pa.array([str(syy)]),
            "sxy": pa.array([str(sxy)]),
            "corr_micro": pa.array([corr_micro], type=pa.int64()),
        })

    return group_map(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "_k", final,
    )


SQL_PRICE_DISCOUNT_CORR = """
    WITH t AS (
      SELECT CAST(ROUND(l_extendedprice*100) AS BIGINT) AS x,
             CAST(ROUND(l_discount*100) AS BIGINT) AS y
      FROM lineitem),
    s AS (
      SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(x) AS sx, SUM(y) AS sy,
             SUM(x*x) AS sxx, SUM(y*y) AS syy, SUM(x*y) AS sxy
      FROM t)
    SELECT n,
           CAST(sx AS VARCHAR) AS sx, CAST(sy AS VARCHAR) AS sy,
           CAST(sxx AS VARCHAR) AS sxx, CAST(syy AS VARCHAR) AS syy,
           CAST(sxy AS VARCHAR) AS sxy,
           CAST(ROUND((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                       - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                      / (SQRT(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                              - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                         * SQRT(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                                - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
                      * 1e6) AS BIGINT) AS corr_micro
    FROM s
"""


def q_event_types_per_user(sf_dir: str, n_parts: int | None = None):
    """Grouped ordered string aggregation: the sorted distinct event types
    each user has produced, comma-joined.  The pair-dedup level is a
    map-side-combined groupby (shuffle carries unique (user, type) pairs
    per block), then pairs co-partition by hash(user) and each partition
    emits its users' joined strings from one lexsort — no per-user task,
    no global sort."""
    from .agg import grouped_aggregate

    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    pairs = grouped_aggregate(ds, ["user_id", "event_type"],
                              [("count", None, "_n")])

    def join_types(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        et = group.column("event_type").to_pandas().to_numpy()
        order = np.lexsort((et, uid))
        uid, et = uid[order], et[order]
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        ends = np.r_[starts[1:], len(uid)]
        users = uid[starts]
        joined = [",".join(et[s:e]) for s, e in zip(starts, ends)]
        return pa.table({
            "user_id": pa.array(users, type=pa.int64()),
            "types": pa.array(joined, type=pa.string()),
        })

    return hash_exchange(
        pairs.select_columns(["user_id", "event_type"]), "user_id", join_types, n_parts,
    )


SQL_EVENT_TYPES_PER_USER = """
    SELECT user_id,
           STRING_AGG(DISTINCT event_type, ',' ORDER BY event_type) AS types
    FROM events GROUP BY user_id
"""


def q_props_value_stats(sf_dir: str):
    """Semi-structured field extraction + aggregate: parse the integer `k`
    field out of the JSON `props` string column with ONE vectorized arrow
    C++ regex kernel (`pc.extract_regex` — no per-row json.loads), then a
    map-side-combined groupby per event type.  The parse is a stateless
    stage; unparseable rows become NULL and are excluded from the k-stats
    but still counted (`n_events` vs `n_with_k`)."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch.column("props"), r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, 0), pa.int64())
        return pa.table({
            "event_type": batch.column("event_type"),
            "k": k,
            "has_k": pc.cast(pc.is_valid(k), pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"],
        [("count", None, "n_events"), ("sum", "has_k", "n_with_k"),
         ("sum", "k", "sum_k"), ("min", "k", "min_k"), ("max", "k", "max_k")],
    )


SQL_PROPS_VALUE_STATS = r"""
    WITH t AS (
      SELECT event_type,
             TRY_CAST(NULLIF(regexp_extract(props, '"k":\s*(-?\d+)', 1), '')
                      AS BIGINT) AS k
      FROM events)
    SELECT event_type,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(COUNT(k) AS BIGINT) AS n_with_k,
           CAST(SUM(k) AS BIGINT) AS sum_k,
           MIN(k) AS min_k, MAX(k) AS max_k
    FROM t GROUP BY event_type
"""


def _ext_modules() -> list[str]:
    """Every ``queries_extN`` module of this package, in numeric order (the
    bare ``queries_ext`` counts as 1): a new module that defines
    ``build_queries_extN`` / ``build_oracles_extN`` is registered by
    existing."""
    names = [info.name for info in pkgutil.iter_modules([os.path.dirname(__file__)])
             if re.fullmatch(r"queries_ext\d*", info.name)]
    return sorted(names, key=lambda name: int(name[len("queries_ext"):] or 1))


def _merge(parts) -> dict:
    """Merge ``(source, entries)`` pairs in order; a name that two sources
    register is an error, never a silent override."""
    out: dict = {}
    owner: dict[str, str] = {}
    for source, entries in parts:
        for name, value in entries.items():
            if name in owner:
                raise ValueError(
                    f"{name!r} is registered by both {owner[name]} and {source}"
                )
            owner[name] = source
            out[name] = value
    return out


def _registry(kind: str, own: dict) -> dict:
    """``kind`` ("queries" or "oracles") of every ``queries_extN`` module,
    from its ``build_<kind>_extN()``, then this module's ``own`` entries."""
    parts = []
    for name in _ext_modules():
        mod = importlib.import_module(f".{name}", __package__)
        build = getattr(mod, f"build_{kind}_{name.removeprefix('queries_')}")
        parts.append((mod.__name__, build()))
    parts.append((__name__, own))
    return _merge(parts)


def build_queries() -> dict:
    return _registry("queries", {
        "label_dyadic": q_label_dyadic,
        "bbox_query": q_bbox_query,
        "label_summary": q_label_summary,
        "span_integrity": q_span_integrity,
        "cell_encode": q_cell_encode,
        "labeled_output": q_labeled_output,
        "zone_join": q_zone_join,
        "events_windowed": q_events_windowed,
        "sessionize": q_sessionize,
        "asof_purchase_view": q_asof_purchase_view,
        "top_orders_per_customer": q_top_orders_per_customer,
        "value_quantiles": q_value_quantiles,
        "top_bigrams": q_top_bigrams,
        "train_test_split": q_train_test_split,
        "token_packing": q_token_packing,
        "dedup_clusters": q_dedup_clusters,
        "orders_without_lineitems": q_orders_without_lineitems,
        "distinct_sources": q_distinct_sources,
        "knn_tiles": q_knn_tiles,
        "tile_counts": q_tile_counts,
        "render_tiles": q_render_tiles,
        "pricing_summary": q_pricing_summary,
        "top_orders": q_top_orders,
        "customers_per_nation": q_customers_per_nation,
        "events_by_type": q_events_by_type,
        "token_counts": q_token_counts,
        "exact_dedup": q_exact_dedup,
        "lang_counts": q_lang_counts,
        "quality_scores": q_quality_scores,
        "bpe_tokens": q_bpe_tokens,
        "lang_id": q_lang_id,
        "fingerprints": q_fingerprints,
        "minhash_near_dup": q_minhash_near_dup,
        "simhash": q_simhash,
        "rolling_user_stats": q_rolling_user_stats,
        "attribution_counts": q_attribution_counts,
        "canonical_docs": q_canonical_docs,
        "stratified_sample": q_stratified_sample,
        "value_histogram": q_value_histogram,
        "rollup_sales": q_rollup_sales,
        "distinct_users_per_type": q_distinct_users_per_type,
        "long_docs": q_long_docs,
        "order_fulfillment": q_order_fulfillment,
        "user_event_pivot": q_user_event_pivot,
        "median_value_per_type": q_median_value_per_type,
        "approx_distinct_users": q_approx_distinct_users,
        "view_only_hours": q_view_only_hours,
        "revenue_by_region": q_revenue_by_region,
        "doc_chunks": q_doc_chunks,
        "part_pair_counts": q_part_pair_counts,
        "conversion_funnel": q_conversion_funnel,
        "cube_sales": q_cube_sales,
        "tile_pyramid": q_tile_pyramid,
        "price_discount_corr": q_price_discount_corr,
        "event_types_per_user": q_event_types_per_user,
        "props_value_stats": q_props_value_stats,
    })


def build_oracles() -> dict:
    return _registry("oracles", {
        "label_dyadic": _sql_label_dyadic(),
        "bbox_query": _sql_bbox_query(),
        "label_summary": SQL_LABEL_SUMMARY,
        "span_integrity": SQL_SPAN_INTEGRITY,
        "cell_encode": _sql_cell_encode(),
        "zone_join": _sql_zone_join(),
        "events_windowed": SQL_EVENTS_WINDOWED,
        "sessionize": SQL_SESSIONIZE,
        "top_bigrams": SQL_TOP_BIGRAMS,
        "train_test_split": SQL_TRAIN_TEST_SPLIT,
        "token_packing": SQL_TOKEN_PACKING,
        "asof_purchase_view": SQL_ASOF_PURCHASE_VIEW,
        "top_orders_per_customer": SQL_TOP_ORDERS_PER_CUSTOMER,
        "value_quantiles": SQL_VALUE_QUANTILES,
        "orders_without_lineitems": SQL_ORDERS_WITHOUT_LINEITEMS,
        "distinct_sources": SQL_DISTINCT_SOURCES,
        "knn_tiles": _sql_knn_tiles(),
        "tile_counts": _sql_tile_counts(),
        # render_tiles: no oracle (binary tile payloads) -> rows-only
        "approx_distinct_users": _sql_approx_distinct_users(),
        "pricing_summary": SQL_PRICING_SUMMARY,
        "top_orders": SQL_TOP_ORDERS,
        "customers_per_nation": SQL_CUSTOMERS_PER_NATION,
        "events_by_type": SQL_EVENTS_BY_TYPE,
        "token_counts": SQL_TOKEN_COUNTS,
        "exact_dedup": SQL_EXACT_DEDUP,
        "lang_counts": SQL_LANG_COUNTS,
        "quality_scores": SQL_QUALITY_SCORES,
        "bpe_tokens": SQL_BPE_TOKENS,
        "lang_id": _sql_lang_id(),
        "fingerprints": SQL_FINGERPRINTS,
        "rolling_user_stats": SQL_ROLLING_USER_STATS,
        "attribution_counts": SQL_ATTRIBUTION_COUNTS,
        "canonical_docs": SQL_CANONICAL_DOCS,
        "stratified_sample": SQL_STRATIFIED_SAMPLE,
        "value_histogram": SQL_VALUE_HISTOGRAM,
        "rollup_sales": SQL_ROLLUP_SALES,
        "distinct_users_per_type": SQL_DISTINCT_USERS_PER_TYPE,
        "long_docs": SQL_LONG_DOCS,
        "order_fulfillment": SQL_ORDER_FULFILLMENT,
        "user_event_pivot": SQL_USER_EVENT_PIVOT,
        "median_value_per_type": SQL_MEDIAN_VALUE_PER_TYPE,
        "view_only_hours": SQL_VIEW_ONLY_HOURS,
        "doc_chunks": SQL_DOC_CHUNKS,
        "revenue_by_region": SQL_REVENUE_BY_REGION,
        "part_pair_counts": SQL_PART_PAIR_COUNTS,
        "conversion_funnel": SQL_CONVERSION_FUNNEL,
        "cube_sales": SQL_CUBE_SALES,
        "tile_pyramid": _sql_tile_pyramid(),
        "labeled_output": _sql_labeled_output(),
        "render_tiles": _sql_render_tiles(),
        "simhash": _sql_simhash(),
        "minhash_near_dup": _sql_minhash_near_dup(),
        "dedup_clusters": _sql_dedup_clusters(),
        "price_discount_corr": SQL_PRICE_DISCOUNT_CORR,
        "event_types_per_user": SQL_EVENT_TYPES_PER_USER,
        "props_value_stats": SQL_PROPS_VALUE_STATS,
    })
