"""Extension batch 87: YoY sign test + minimum-width bounding strip."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_yoy_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext87 import (
        SQL_YOY_SIGN_TEST, q_yoy_sign_test,
    )

    d = q_yoy_sign_test(SF)
    o = con.execute(SQL_YOY_SIGN_TEST).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_yoy_partition(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext87 import q_yoy_sign_test

    d = q_yoy_sign_test(SF).iloc[0]
    assert d["n_pos"] + d["n_neg"] + d["n_zero"] == d["n_weeks"] == 53
    assert d["n_pos"] > 0 or d["n_neg"] > 0


def test_width_matches_oracle(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext87 import (
        _sql_min_width_stats, q_min_width_stats,
    )

    d = q_min_width_stats(SF).to_pandas()
    o = con.execute(_sql_min_width_stats()).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_width_known_shapes():
    """Rectangle: width == the short side; square: width == the side;
    width <= diameter always."""
    from polylabel_rs_ray.pipelines.queries_ext87 import (
        _chain_hull, _min_width_sq,
    )

    rect = _chain_hull([(0.0, 0.0), (6.0, 0.0), (6.0, 2.0), (0.0, 2.0)])
    num, den = _min_width_sq(rect)
    assert num / den == 4.0  # short side 2 -> width^2 = 4
    sq = _chain_hull([(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)])
    num, den = _min_width_sq(sq)
    assert num / den == 9.0
    tri = _chain_hull([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
    num, den = _min_width_sq(tri)
    # min width of the 3-4-5 right triangle: altitude to the hypotenuse 12/5
    assert num / den == pytest.approx((12.0 / 5.0) ** 2)


def test_width_degenerate():
    from polylabel_rs_ray.pipelines.queries_ext87 import (
        _chain_hull, _min_width_sq,
    )

    line = _chain_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    num, den = _min_width_sq(line)
    assert num == 0.0 and den == 1.0
