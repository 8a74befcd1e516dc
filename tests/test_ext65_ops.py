"""Extension batch 65: polygon bbox clipping + hexagonal binning."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_clip_stats_matches_oracle(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext65 import (
        _sql_clip_stats, q_clip_stats,
    )

    d = q_clip_stats(SF).to_pandas()
    o = con.execute(_sql_clip_stats()).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_clip_area_bounded_by_bbox_and_polygon():
    """Clipped area can exceed neither the clip window nor the polygon."""
    from polylabel_rs_ray.pipelines.queries_ext65 import (
        _clip_central_bbox, _shoelace_abs,
    )
    from polylabel_rs_ray.pipelines.queries_ext import _norm_exterior
    from polylabel_rs_ray.sources.fixtures import (
        DYADIC_FIXTURES, FIXTURES,
    )

    for name in DYADIC_FIXTURES:
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings])
        w, h = float(ext[:, 0].max()), float(ext[:, 1].max())
        clipped = _clip_central_bbox(ext)
        a = _shoelace_abs(clipped)
        assert a <= (w * 0.5) * (h * 0.5) + 1e-12
        assert a <= _shoelace_abs(ext[:-1] if np.array_equal(ext[0], ext[-1])
                                  else ext) + 1e-12


def test_clip_square_exact():
    """A unit square clipped to its central half keeps exactly 1/4 area."""
    from polylabel_rs_ray.pipelines.queries_ext65 import (
        _clip_central_bbox, _shoelace_abs,
    )

    sq = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)])
    clipped = _clip_central_bbox(sq)
    assert _shoelace_abs(clipped) == 4.0  # (4/2)^2, dyadic-exact
    assert len(clipped) == 4


def test_clip_axis_parallel_edge_divides_by_no_zero():
    """An edge parallel to the cut line is never divided by its zero
    extent, so the clip raises no RuntimeWarning."""
    import warnings

    from polylabel_rs_ray.pipelines.queries_ext65 import _clip_halfplane

    sq = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clipped = _clip_halfplane(sq, 1, 2.0, keep_low=True)
    assert clipped.tolist() == [[4.0, 0.0], [4.0, 2.0], [0.0, 2.0], [0.0, 0.0]]


def test_clip_engine_equals_twin():
    """Vectorized engine clipper == sequential scalar twin, bit-for-bit,
    on every dyadic fixture."""
    from polylabel_rs_ray.pipelines.queries_ext65 import (
        _clip_central_bbox, _shoelace_abs, _twin_clip_stats,
    )
    from polylabel_rs_ray.pipelines.queries_ext import _norm_exterior
    from polylabel_rs_ray.sources.fixtures import DYADIC_FIXTURES, FIXTURES

    for name in DYADIC_FIXTURES:
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings])
        clipped = _clip_central_bbox(ext)
        a_engine, v_engine = _shoelace_abs(clipped), len(clipped)
        a_twin, v_twin = _twin_clip_stats(ext)
        assert a_engine == a_twin, name
        assert v_engine == v_twin, name


def test_hex_bins_matches_oracle(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext65 import (
        _sql_hex_bins, q_hex_bins,
    )

    d = q_hex_bins(SF).to_pandas()
    o = con.execute(_sql_hex_bins()).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))
    # bin masses account for every dyadic label point
    from polylabel_rs_ray.pipelines.queries import _dyadic_labeled

    n = _dyadic_labeled(SF).count()
    assert int(d["n_points"].sum()) == n


def test_hex_round_trip_centers():
    """The center of each axial cell rounds back to itself."""
    from polylabel_rs_ray.pipelines.queries_ext65 import HEX_SIZE, _hex_axial

    qs = np.array([-2, -1, 0, 1, 2, 5], dtype=np.float64)
    rs = np.array([1, 0, 0, -1, 3, -4], dtype=np.float64)
    # axial -> cartesian center (pointy-top)
    x = HEX_SIZE * (np.sqrt(3.0) * qs + np.sqrt(3.0) / 2.0 * rs)
    y = HEX_SIZE * (1.5 * rs)
    q_out, r_out = _hex_axial(x, y)
    assert (q_out == qs.astype(np.int64)).all()
    assert (r_out == rs.astype(np.int64)).all()
