"""Extension batch 148: majority raster + offset-generator audit."""

import duckdb
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


def test_majority_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext148 import (
        _sql_tile_majority_fixture, q_tile_majority_fixture,
    )

    d = q_tile_majority_fixture(SF).to_pandas()
    o = con.execute(_sql_tile_majority_fixture()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_majority_reconciles_with_tile_counts(ray_session):
    """Per-tile totals equal tile_counts; the winner holds a plurality
    (winner_n >= n_points / #dyadic fixtures)."""
    from polylabel_rs_ray.pipelines.queries import q_tile_counts
    from polylabel_rs_ray.pipelines.queries_ext148 import (
        q_tile_majority_fixture,
    )

    d = q_tile_majority_fixture(SF).to_pandas().set_index("tile_id").sort_index()
    tc = q_tile_counts(SF).to_pandas().set_index("tile_id").sort_index()
    assert set(d.index) == set(tc.index)
    assert (d["n_points"] == tc["n_points"]).all()
    assert (d["winner_n"] >= 1).all()
    assert (4 * d["winner_n"] >= d["n_points"]).all()
    assert (d["winner_n"] <= d["n_points"]).all()


def test_offsets_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext148 import (
        _sql_offset_generator_audit, q_offset_generator_audit,
    )

    d = q_offset_generator_audit(SF).to_pandas()
    o = con.execute(_sql_offset_generator_audit()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_offsets_cover_docs(ray_session, con):
    """Histogram mass equals the non-sentinel dyadic doc count, and the
    recovered offsets live on the (mod 16) grid."""
    from polylabel_rs_ray.pipelines.queries_ext148 import (
        q_offset_generator_audit,
    )
    from polylabel_rs_ray.sources import docs as docs_mod
    from polylabel_rs_ray.sources.fixtures import (
        DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES,
    )

    d = q_offset_generator_audit(SF).to_pandas()
    keep = [FIXTURE_CYCLE.index(nm) for nm in DYADIC_FIXTURES
            if FIXTURES[nm].kind != "sentinel"]
    mods = ",".join(str(m) for m in keep)
    n_docs = con.execute(
        f"SELECT COUNT(*) FROM documents "
        f"WHERE doc_id % {docs_mod.N_FIXTURES} IN ({mods})").fetchone()[0]
    assert int(d["n"].sum()) == n_docs
    assert d["gx"].between(0, 15).all()
    assert d["gy"].between(0, 15).all()
