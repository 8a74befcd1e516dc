"""Spatial join, kNN tile assignment, tile rendering — brute-force parity."""

import numpy as np
import pyarrow as pa

from polylabel_rs_ray.config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
from polylabel_rs_ray.stages.cells import cell_bounds, encode_cells
from polylabel_rs_ray.stages.join import KnnTiles, N_ZONES, ZoneJoin, zone_table
from polylabel_rs_ray.stages.tiles import TileRenderer

RNG = np.random.default_rng(11)


def _batch(px, py):
    return pa.table({
        "doc_num": pa.array(np.arange(len(px)), type=pa.int64()),
        "label_x": pa.array(px, type=pa.float64()),
        "label_y": pa.array(py, type=pa.float64()),
    })


def test_zone_join_matches_bruteforce():
    px = RNG.uniform(-100, 1200, 2000)
    py = RNG.uniform(-100, 1200, 2000)
    out = ZoneJoin()(_batch(px, py))
    got = set(zip(out.column("doc_num").to_pylist(), out.column("zone_id").to_pylist()))

    z = zone_table()
    expected = set()
    for i in range(len(px)):
        for j in range(N_ZONES):
            if z["x0"][j] < px[i] < z["x1"][j] and z["y0"][j] < py[i] < z["y1"][j]:
                expected.add((i, j))
    assert got == expected
    assert len(expected) > 100  # non-trivial join


def test_zone_join_empty_batch():
    out = ZoneJoin()(_batch(np.array([]), np.array([])))
    assert out.num_rows == 0
    assert out.column_names == ["doc_num", "zone_id"]


def test_knn_matches_bruteforce_all_tiles():
    px = np.concatenate([RNG.uniform(-150, 1200, 500), [0.0, 0.5625]])
    py = np.concatenate([RNG.uniform(-150, 1200, 500), [0.0, 0.5625]])
    out = KnnTiles()(_batch(px, py))
    got = {}
    for r in out.to_pylist():
        got.setdefault(r["doc_num"], []).append((r["knn_rank"], r["tile_id"], r["dist2"]))

    n = 1 << DEFAULT_TILE_RES
    size = WORLD_SIZE / n
    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    tid = encode_cells(gx.ravel(), gy.ravel(), DEFAULT_TILE_RES)
    cx = WORLD_MIN + (gx.ravel() + 0.5) * size
    cy = WORLD_MIN + (gy.ravel() + 0.5) * size
    for i in range(len(px)):
        d2 = (px[i] - cx) ** 2 + (py[i] - cy) ** 2
        order = np.lexsort((tid, d2))[:3]
        expected = [(r + 1, int(tid[o]), float(d2[o])) for r, o in enumerate(order)]
        assert sorted(got[i]) == expected, i


def test_tile_renderer_invariants():
    px = RNG.uniform(0.0, 1000.0, 300)
    py = RNG.uniform(0.0, 1000.0, 300)
    from polylabel_rs_ray.stages.cells import cell_id

    tids = cell_id(px, py, DEFAULT_TILE_RES)
    t0 = tids[0]
    sel = tids == t0
    group = pa.table({
        "tile_id": pa.array(tids[sel], type=pa.int64()),
        "label_x": pa.array(px[sel]),
        "label_y": pa.array(py[sel]),
    })
    out = TileRenderer(raster_px=16)(group)
    row = out.to_pylist()[0]
    assert row["n_points"] == int(sel.sum())
    grid = np.frombuffer(row["raster"], dtype=np.uint32).reshape(16, 16)
    assert grid.sum() == row["n_points"] == row["raster_sum"]
    assert (grid > 0).sum() == row["raster_nonzero"]
    vec = np.frombuffer(row["vector"], dtype=np.float64).reshape(-1, 5)
    assert len(vec) == row["n_zones_clipped"]
    x0, y0, x1, y1 = cell_bounds(np.array([t0]))
    assert (vec[:, 1] >= x0[0]).all() and (vec[:, 3] <= x1[0]).all()


def test_entry_smoke(ray_session):
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod

    res = entrymod.entry()
    df = res.to_pandas()
    assert len(df) > 0
    assert df["n_points"].sum() == 500  # every sf0.001 doc lands in a tile
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    assert set(oracles) <= set(qs)


def test_new_engine_ops_match_duckdb(ray_session):
    """As-of join, top-N per group, exact distributed quantiles: bit-equal
    to the DuckDB oracles at sf0.001."""
    import duckdb

    from polylabel_rs_ray.pipelines.queries import (
        SQL_ASOF_PURCHASE_VIEW,
        SQL_TOP_ORDERS_PER_CUSTOMER,
        SQL_VALUE_QUANTILES,
        q_asof_purchase_view,
        q_top_orders_per_customer,
        q_value_quantiles,
    )

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    for q, sql in [
        (q_asof_purchase_view, SQL_ASOF_PURCHASE_VIEW),
        (q_top_orders_per_customer, SQL_TOP_ORDERS_PER_CUSTOMER),
        (q_value_quantiles, SQL_VALUE_QUANTILES),
    ]:
        res = q(sf)
        d = res.to_pandas() if hasattr(res, "to_pandas") else res
        if isinstance(d, pa.Table):
            d = d.to_pandas()
        o = con.execute(sql).df()
        cols = sorted(d.columns)
        a = d[cols].sort_values(cols).reset_index(drop=True)
        b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
        assert len(a) > 0 and a.equals(b), sql


def test_bbox_query_pruned_read(ray_session):
    """Partition-pruned spatial read: result equals the dyadic SQL oracle
    and the read opens strictly fewer partitions than exist."""
    import os

    import duckdb

    from polylabel_rs_ray.pipelines.queries import (
        BBOX_QUERY,
        COARSE_RES,
        _sql_bbox_query,
        q_bbox_query,
        spatial_partitioned_docs,
    )
    from polylabel_rs_ray.stages.cells import cover_bbox

    sf = "/root/testdata/sf0.001"
    d = q_bbox_query(sf).to_pandas().sort_values("doc_num").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    o = con.execute(_sql_bbox_query()).df().sort_values("doc_num").reset_index(drop=True)
    assert len(d) > 0 and d.equals(o[list(d.columns)].astype(d.dtypes.to_dict()))

    ckpt = spatial_partitioned_docs(sf)
    total = {x for x in os.listdir(ckpt) if x.startswith("ptile=")}
    x0, y0, x1, y1 = BBOX_QUERY
    opened = {f"ptile={int(t)}" for t in cover_bbox(x0, y0, x1, y1, COARSE_RES)} & total
    assert 0 < len(opened) < len(total)
