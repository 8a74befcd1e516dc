"""Extension batch 149: word-length spectrum + tile clearance."""

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


def test_wordlen_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext149 import (
        SQL_WORD_LENGTH_HISTOGRAM, q_word_length_histogram,
    )

    d = q_word_length_histogram(SF).to_pandas()
    o = con.execute(SQL_WORD_LENGTH_HISTOGRAM).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_wordlen_reconciles(ray_session, con):
    """Mass identity: Σ counts == total token count; Σ len·count ==
    total non-space characters (the offsets-based kernel can't cheat)."""
    from polylabel_rs_ray.pipelines.queries_ext149 import (
        q_word_length_histogram,
    )

    d = q_word_length_histogram(SF).to_pandas()
    n_toks, n_chars = con.execute(r"""
        SELECT SUM(len(regexp_extract_all(lower(text), '\S+'))),
               SUM(LENGTH(regexp_replace(lower(text), '\s', '', 'g')))
        FROM documents
    """).fetchone()
    assert int(d["n_words"].sum()) == n_toks
    assert int((d["word_len"] * d["n_words"]).sum()) == n_chars
    assert (d["word_len"] >= 1).all()


def test_clearance_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext149 import (
        _sql_label_tile_clearance, q_label_tile_clearance,
    )

    d = q_label_tile_clearance(SF).to_pandas()
    o = con.execute(_sql_label_tile_clearance()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_clearance_properties(ray_session):
    """Clearance lives in [0, 32] (half the 64-unit tile) and genuinely
    VARIES per doc — the 1000-period offset lattice is NOT tile-aligned,
    so the margin audit carries real per-doc information; sentinels sit
    ON a tile corner ((0,0) is on the lattice) with clearance 0."""
    from polylabel_rs_ray.pipelines.queries_ext149 import (
        CLEAR_SCALE, q_label_tile_clearance,
    )
    from polylabel_rs_ray.sources.fixtures import FIXTURE_CYCLE

    d = q_label_tile_clearance(SF).to_pandas()
    assert d["clearance_units"].between(0, CLEAR_SCALE // 2).all()
    assert d["clearance_units"].nunique() > 10
    for name in ("degenerate_collinear", "degenerate_spike"):
        g = d[d["fixture_idx"] == FIXTURE_CYCLE.index(name)]
        assert (g["clearance_units"] == 0).all()
