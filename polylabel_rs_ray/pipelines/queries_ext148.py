"""Round-3 extension operators, batch 148: majority-class raster +
offset-generator recovery audit.

``tile_majority_fixture`` — the majority-vote classification raster:
per render tile (32×32 lattice), the dominant dyadic fixture among
the labels falling in it (ties to the smallest fixture index), its
count and the tile total — the "argmax over a spatial key" shape a
land-cover classifier emits.  The (tile, fixture) count table is
bounded (≤1024×4) through the map-side combine; the per-tile argmax
is a driver fold.  Oracle: the label CTE + tile expression + QUALIFY.

``offset_generator_audit`` — end-to-end label-arithmetic recovery:
for the NON-SENTINEL dyadic fixtures, the engine recovers each
document's translation offset from its COMPUTED label
(``label − fixture-constant label`` — fp-exact because offsets are
integers) and histograms ``(offx mod 16, offy mod 16)`` over the full
256-cell grid.  The oracle replays the generator arithmetic
``(doc_id·37 mod 1000) mod 16`` directly — so a value match proves
label == constant + offset held through the whole distributed label
pipeline, not just that two replicas agree.

Reference anchors: raster-classification + engine-audit families
(SURVEY.md §2.3/2.4); siblings: tile_counts / tile_equalize (bounded
tile rasters), label_dyadic (translation-exact labels),
partition_skew_audit (generator-replay oracles).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources import docs as docs_mod
from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES


# --------------------------------------------------------------------------
# tile_majority_fixture
# --------------------------------------------------------------------------


def q_tile_majority_fixture(sf_dir: str):
    from .agg import grouped_aggregate
    from .queries import CELL_COLUMNS, _dyadic_labeled

    import ray
    ds = _dyadic_labeled(sf_dir, CELL_COLUMNS)

    def keyed(batch: pa.Table) -> pa.Table:
        fix = batch.column("doc_num").to_numpy() % docs_mod.N_FIXTURES
        t = pa.table({
            "tile_id": batch.column("tile_id"),
            "fixture_idx": pa.array(fix.astype(np.int64), type=pa.int64()),
        })
        out = t.group_by(["tile_id", "fixture_idx"]).aggregate(
            [("fixture_idx", "count")])
        return pa.table({
            "tile_id": out.column("tile_id"),
            "fixture_idx": out.column("fixture_idx"),
            "n": pc.cast(out.column("fixture_idx_count"), pa.int64()),
        })

    tf = grouped_aggregate(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["tile_id", "fixture_idx"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: tiles × dyadic fixtures

    tiles, winners, wn, tot = [], [], [], []
    for tid, g in tf.groupby("tile_id"):
        n = g["n"].to_numpy().astype(np.int64)
        f = g["fixture_idx"].to_numpy().astype(np.int64)
        k = np.lexsort((f, -n))[0]
        tiles.append(int(tid))
        winners.append(int(f[k]))
        wn.append(int(n[k]))
        tot.append(int(n.sum()))
    return ray.data.from_arrow(pa.table({
        "tile_id": pa.array(tiles, type=pa.int64()),
        "winner_fixture": pa.array(winners, type=pa.int64()),
        "winner_n": pa.array(wn, type=pa.int64()),
        "n_points": pa.array(tot, type=pa.int64()),
    }))


def _sql_tile_majority_fixture() -> str:
    from ..config import DEFAULT_TILE_RES
    from .queries import sql_cell_id_expr
    from .queries import _sql_dyadic_labels_cte

    tile = sql_cell_id_expr("label_x", "label_y", DEFAULT_TILE_RES)
    n = docs_mod.N_FIXTURES
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        tf AS (
          SELECT {tile} AS tile_id, doc_num % {n} AS fixture_idx,
                 CAST(COUNT(*) AS BIGINT) AS cnt
          FROM labels GROUP BY 1, 2
        ),
        tot AS (
          SELECT tile_id, CAST(SUM(cnt) AS BIGINT) AS n_points
          FROM tf GROUP BY tile_id
        ),
        win AS (
          SELECT tile_id, fixture_idx AS winner_fixture, cnt AS winner_n
          FROM tf
          QUALIFY ROW_NUMBER() OVER (PARTITION BY tile_id
                                     ORDER BY cnt DESC, fixture_idx ASC) = 1
        )
        SELECT w.tile_id, CAST(w.winner_fixture AS BIGINT) AS winner_fixture,
               w.winner_n, t.n_points
        FROM win w JOIN tot t ON t.tile_id = w.tile_id
    """


# --------------------------------------------------------------------------
# offset_generator_audit
# --------------------------------------------------------------------------


def q_offset_generator_audit(sf_dir: str):
    from ..geom.kernel import polylabel_one
    from .agg import grouped_aggregate
    from .queries import _dyadic_labeled

    import ray
    # fixture-constant labels for the non-sentinel dyadic fixtures
    base: dict[int, tuple[float, float]] = {}
    for name in DYADIC_FIXTURES:
        fx = FIXTURES[name]
        if fx.kind == "sentinel":
            continue
        f = FIXTURE_CYCLE.index(name)
        x, y, _d, _a, _ = polylabel_one(fx.rings, fx.tolerance)
        base[f] = (x, y)
    keep = np.array(sorted(base), dtype=np.int64)
    bx = np.array([base[int(f)][0] for f in keep])
    by = np.array([base[int(f)][1] for f in keep])

    def recover(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_num").to_numpy().astype(np.int64)
        fix = doc % docs_mod.N_FIXTURES
        m = np.isin(fix, keep)
        pos = np.searchsorted(keep, fix[m])
        # fp-exact: label = constant + integer offset
        offx = (batch.column("label_x").to_numpy()[m] - bx[pos]).astype(
            np.int64)
        offy = (batch.column("label_y").to_numpy()[m] - by[pos]).astype(
            np.int64)
        t = pa.table({
            "gx": pa.array(offx % 16, type=pa.int64()),
            "gy": pa.array(offy % 16, type=pa.int64()),
        })
        out = t.group_by(["gx", "gy"]).aggregate([("gx", "count")])
        return pa.table({
            "gx": out.column("gx"),
            "gy": out.column("gy"),
            "n": pc.cast(out.column("gx_count"), pa.int64()),
        })

    return grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(
            recover, batch_format="pyarrow", zero_copy_batch=True),
        ["gx", "gy"], [("sum", "n", "n")],
    )


def _sql_offset_generator_audit() -> str:
    n = docs_mod.N_FIXTURES
    keep = [FIXTURE_CYCLE.index(name) for name in DYADIC_FIXTURES
            if FIXTURES[name].kind != "sentinel"]
    mods = ",".join(str(m) for m in keep)
    return f"""
        SELECT ((doc_id * {docs_mod.OFF_X_MULT}) % {docs_mod.OFF_MOD}) % 16
                   AS gx,
               ((doc_id * {docs_mod.OFF_Y_MULT}) % {docs_mod.OFF_MOD}) % 16
                   AS gy,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM documents
        WHERE doc_id % {n} IN ({mods})
        GROUP BY 1, 2
    """


def build_queries_ext148() -> dict:
    return {
        "tile_majority_fixture": q_tile_majority_fixture,
        "offset_generator_audit": q_offset_generator_audit,
    }


def build_oracles_ext148() -> dict:
    return {
        "tile_majority_fixture": _sql_tile_majority_fixture(),
        "offset_generator_audit": _sql_offset_generator_audit(),
    }
