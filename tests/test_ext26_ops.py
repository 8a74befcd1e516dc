"""Extension batch 26: feature hashing, tile heat smoothing."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return c


def _cmp(res, con, sql):
    d = res.to_pandas() if hasattr(res, "to_pandas") else res
    o = con.execute(sql).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert a.equals(b), f"mismatch:\n{a.head()}\n{b.head()}"
    return a


def test_feature_hash_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext26 import (
        FEATURE_DIM, SQL_FEATURE_HASH, q_feature_hash,
    )

    a = _cmp(q_feature_hash(SF), con, SQL_FEATURE_HASH)
    assert a["bucket"].between(0, FEATURE_DIM - 1).all()
    # per-doc bucket counts sum to the doc's token count
    toks = con.execute(
        r"SELECT doc_id, CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)"
        " AS n FROM documents"
    ).df().set_index("doc_id")["n"]
    got = a.groupby("doc_id")["cnt"].sum()
    assert got.equals(toks[got.index].rename("cnt"))


def test_feature_hash_bucket_is_md5(ray_session):
    """Bucket assignment must be the md5-low-64 LE convention (the
    md5_number_lower contract shared with simhash)."""
    import hashlib

    from polylabel_rs_ray.pipelines.queries_ext26 import FEATURE_DIM, _md5_low64

    assert _md5_low64("table") == int.from_bytes(
        hashlib.md5(b"table").digest()[8:], "little"
    )
    assert 0 <= _md5_low64("table") % FEATURE_DIM < FEATURE_DIM


def test_tile_heat_smooth_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.config import DEFAULT_TILE_RES
    from polylabel_rs_ray.pipelines.queries_ext26 import (
        _sql_tile_heat_smooth, q_tile_heat_smooth,
    )
    from polylabel_rs_ray.stages.cells import decode_cells

    a = _cmp(q_tile_heat_smooth(SF), con, _sql_tile_heat_smooth())
    assert (a["heat"] == a["heat_sum"] / 9.0).all()
    # conservation with edge loss: total smoothed mass <= 9 x point count
    # (strictly less when any occupied tile touches the world border),
    # and every smoothed tile is within the grid
    ix, iy, res = decode_cells(a["tile_id"].to_numpy())
    n = 1 << DEFAULT_TILE_RES
    assert (res == DEFAULT_TILE_RES).all()
    assert ((ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)).all()


def test_tile_heat_smooth_interior_mass(ray_session, con):
    """An interior tile's smoothed sum equals the exact 3x3 window sum of
    the raw histogram (brute-force replay on the driver)."""
    from polylabel_rs_ray.pipelines.queries_ext26 import q_tile_heat_smooth
    from polylabel_rs_ray.pipelines.queries import q_tile_counts
    from polylabel_rs_ray.stages.cells import decode_cells

    heat = q_tile_heat_smooth(SF).to_pandas()
    raw = q_tile_counts(SF).to_pandas()
    rix, riy, _ = decode_cells(raw["tile_id"].to_numpy())
    grid = {}
    for x, y, c in zip(rix, riy, raw["n_points"]):
        grid[(x, y)] = c
    hix, hiy, _ = decode_cells(heat["tile_id"].to_numpy())
    for x, y, s in zip(hix, hiy, heat["heat_sum"]):
        want = sum(
            grid.get((x + dx, y + dy), 0)
            for dx in (-1, 0, 1) for dy in (-1, 0, 1)
        )
        assert s == want
