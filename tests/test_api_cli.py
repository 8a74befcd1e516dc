"""Convenience API, GeoJSON CLI, one-tile render, co-partitioned join."""

import numpy as np
import pyarrow as pa

from polylabel_rs_ray.api import label_position

ELL_RING = [[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [1.0, 1.0], [1.0, 4.0], [0.0, 4.0], [0.0, 0.0]]


def test_label_position_lists():
    # ffi.py:137-152 call shape; L-shape doctest value (lib.rs:333)
    assert label_position(ELL_RING, tolerance=0.1) == (0.5625, 0.5625)
    # hexagon with two holes: containment-quality (see test_geom_kernel)
    exterior = [[4.0, 1.0], [5.0, 2.0], [5.0, 3.0], [4.0, 4.0], [3.0, 4.0],
                [2.0, 3.0], [2.0, 2.0], [3.0, 1.0], [4.0, 1.0]]
    interiors = [
        [[3.5, 3.5], [4.4, 2.0], [2.6, 2.0], [3.5, 3.5]],
        [[4.0, 3.0], [4.0, 3.2], [4.5, 3.2], [4.0, 3.0]],
    ]
    x, y = label_position(exterior, interiors=interiors, tolerance=0.1)
    assert (x, y) == (2.515625, 2.828125)


def test_label_position_polygon_object():
    class Ring:
        def __init__(self, coords):
            self.coords = coords

    class Poly:
        exterior = Ring([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (0.0, 4.0)])
        interiors = []

    assert label_position(Poly(), tolerance=0.1) == (0.5625, 0.5625)


def test_geojson_cli_ell(ray_session, tmp_path):
    from polylabel_rs_ray.geojson_cli import label_geojson

    # the reference CLI's ell.geojson: one Feature holding the L-shape
    doc = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {},
            "geometry": {"type": "Polygon", "coordinates": [ELL_RING]},
        }],
    }
    out = label_geojson(doc, 0.1)
    assert len(out["features"]) == 1
    feat = out["features"][0]
    # matches the reference CLI's point output (labels.geojson:1)
    assert feat["geometry"]["coordinates"] == [0.5625, 0.5625]
    assert feat["properties"]["_area"] == 7.0  # planar shoelace area


def test_geojson_multipolygon(ray_session):
    from polylabel_rs_ray.geojson_cli import label_geojson

    doc = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {},
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [
                    [[[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]],
                    [[[100, 100], [104, 100], [104, 101], [101, 101], [101, 104], [100, 104], [100, 100]]],
                ],
            },
        }],
    }
    out = label_geojson(doc, 0.1)
    # one label per part (FIXTURES.md §4), feature index shared
    assert len(out["features"]) == 2
    coords = [f["geometry"]["coordinates"] for f in out["features"]]
    assert [5.0, 5.0] in coords
    assert [100.5625, 100.5625] in coords
    assert all(f["properties"]["feature_idx"] == 0 for f in out["features"])


def test_geojson_cli_labels_each_polygon_once(ray_session, labelled_rows):
    """The CLI sends each polygon through label_batch once, not once more to
    read the output schema."""
    from polylabel_rs_ray.geojson_cli import label_geojson

    doc = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[x + i * 10.0, y] for x, y in ELL_RING]]},
        } for i in range(5)],
    }
    out = label_geojson(doc, 0.1)
    assert len(out["features"]) == 5
    assert labelled_rows() == 5


def test_one_hot_tile_matches_renderer(ray_session):
    """Every row in one tile, spread over several blocks: the shuffle hands
    the renderer the whole tile, so the output is what TileRenderer gives on
    the whole table."""
    import ray

    from polylabel_rs_ray.stages.cells import cell_id
    from polylabel_rs_ray.stages.tiles import TileRenderer, render_tiles

    rng = np.random.default_rng(3)
    x = rng.uniform(0.5, 127.5, 3000)
    y = rng.uniform(0.5, 127.5, 3000)
    tids = cell_id(x, y, 5)
    assert len(np.unique(tids)) == 1
    t = pa.table({
        "tile_id": pa.array(tids, type=pa.int64()),
        "label_x": pa.array(x),
        "label_y": pa.array(y),
    })
    blocks = [t.slice(i, 500) for i in range(0, t.num_rows, 500)]
    got = render_tiles(ray.data.from_arrow(blocks)).to_pandas()
    want = TileRenderer()(t).to_pandas()
    assert len(got) == 1
    assert got.tile_id[0] == want.tile_id[0]
    assert got.n_points[0] == want.n_points[0] == 3000
    assert got.raster[0] == want.raster[0]
    assert list(got.points_x[0]) == list(want.points_x[0])
    assert list(got.points_y[0]) == list(want.points_y[0])
