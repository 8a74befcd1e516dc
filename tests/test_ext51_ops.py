"""Extension batches 51-52: RFM segmentation + quadkey tiles."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_user_rfm_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext51 import (
        SQL_USER_RFM_SEGMENTS, q_user_rfm_segments,
    )

    d = _sorted(q_user_rfm_segments(SF).to_pandas())
    o = con.execute(SQL_USER_RFM_SEGMENTS).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_user_rfm_semantics(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext51 import q_user_rfm_segments

    df = q_user_rfm_segments(SF).to_pandas()
    n_users = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    assert len(df) == n_users
    assert (df["recency_days"] >= 0).all()
    assert (df["r_band"] == df["recency_days"] // 30).all()
    assert (df["f_band"] == df["n_events"] // 10).all()
    assert (df["m_band"] == df["spend_cents"] // 100_000).all()
    sizes = df.groupby(["r_band", "f_band", "m_band"]).size()
    for key, g in df.groupby(["r_band", "f_band", "m_band"]):
        assert (g["cohort_n"] == sizes.loc[key]).all()


def test_quadkey_tiles_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext52 import (
        _sql_quadkey_tiles, q_quadkey_tiles,
    )

    d = _sorted(q_quadkey_tiles(SF).to_pandas())
    o = con.execute(_sql_quadkey_tiles()).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_quadkey_properties(ray_session):
    """Quadkeys are res-length base-4 strings, unique per tile, the parent
    is the prefix (the pyramid-rollup property), and counts match the
    morton tile histogram."""
    from polylabel_rs_ray.config import DEFAULT_TILE_RES
    from polylabel_rs_ray.pipelines.queries import q_tile_counts
    from polylabel_rs_ray.pipelines.queries_ext52 import q_quadkey_tiles

    df = q_quadkey_tiles(SF).to_pandas()
    assert df["quadkey"].is_unique
    assert (df["quadkey"].str.len() == DEFAULT_TILE_RES).all()
    assert df["quadkey"].str.fullmatch("[0-3]+").all()
    assert (df["parent_quadkey"] == df["quadkey"].str[:-1]).all()
    tiles = q_tile_counts(SF).to_pandas()
    assert sorted(df["n_points"]) == sorted(tiles["n_points"])
