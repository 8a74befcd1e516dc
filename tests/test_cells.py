"""Cell index: encode/decode round-trip, hierarchy, covering, SQL parity."""

import duckdb
import numpy as np
import pyarrow as pa

from polylabel_rs_ray.pipelines.queries import sql_cell_id_expr
from polylabel_rs_ray.stages.cells import (
    append_cell_columns,
    cell_bounds,
    cell_id,
    cell_parent,
    cover_bbox,
    decode_cells,
    encode_cells,
)

RNG = np.random.default_rng(7)


def test_roundtrip():
    for res in [0, 1, 5, 8, 16, 26]:
        n = 1 << res
        ix = RNG.integers(0, n, 200)
        iy = RNG.integers(0, n, 200)
        cid = encode_cells(ix, iy, res)
        rx, ry, rr = decode_cells(cid)
        np.testing.assert_array_equal(rx, ix)
        np.testing.assert_array_equal(ry, iy)
        assert (rr == res).all()
        assert (cid >= 0).all()  # int64-safe for SQL


def test_parent_prefix():
    x = RNG.uniform(-2000, 2000, 500)
    y = RNG.uniform(-2000, 2000, 500)
    fine = cell_id(x, y, 8)
    coarse = cell_id(x, y, 5)
    np.testing.assert_array_equal(cell_parent(fine, 5), coarse)


def test_center_bounds():
    x = np.array([0.5625, -130.0, 1100.0])
    y = np.array([0.5625, 7.0, 42.0])
    cid = cell_id(x, y, 8)
    x0, y0, x1, y1 = cell_bounds(cid)
    assert ((x0 <= x) & (x < x1)).all()
    assert ((y0 <= y) & (y < y1)).all()


def test_cover_bbox():
    cells = cover_bbox(0.0, 0.0, 100.0, 40.0, 8)  # 16-unit cells
    assert len(cells) == 7 * 3
    # every cell intersects the bbox
    x0, y0, x1, y1 = cell_bounds(cells)
    assert (x1 > 0).all() and (x0 < 100).all() and (y1 > 0).all() and (y0 < 40).all()


def test_encoder_stage_matches_functions():
    x = RNG.uniform(-2000, 2000, 1000)
    y = RNG.uniform(-2000, 2000, 1000)
    batch = pa.table({"label_x": x, "label_y": y})
    out = append_cell_columns(batch, cell_res=8, tile_res=5)
    np.testing.assert_array_equal(out.column("cell_id").to_numpy(), cell_id(x, y, 8))
    np.testing.assert_array_equal(out.column("tile_id").to_numpy(), cell_id(x, y, 5))


def test_sql_parity():
    x = np.concatenate([RNG.uniform(-2047, 2047, 300), [0.0, 0.5625, 35.15625 + 371]])
    y = np.concatenate([RNG.uniform(-2047, 2047, 300), [0.0, 0.5625, 35.15625 + 742]])
    for res in [5, 8]:
        expected = cell_id(x, y, res)
        con = duckdb.connect()
        con.register("pts", pa.table({"x": x, "y": y}))
        expr = sql_cell_id_expr("x", "y", res)
        got = con.execute(f"SELECT {expr} AS cid FROM pts").fetchnumpy()["cid"]
        np.testing.assert_array_equal(got.astype(np.int64), expected)
