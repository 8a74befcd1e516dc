"""Extension batch 115: grid DBSCAN clusters + letter frequency matrix."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "part"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_dbscan_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext115 import (
        _sql_dbscan_tile_clusters, q_dbscan_tile_clusters,
    )

    d = q_dbscan_tile_clusters(SF).to_pandas()
    o = con.execute(_sql_dbscan_tile_clusters()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_dbscan_partition_of_core(ray_session):
    """Clusters partition the core-tile set: cell counts sum to the
    number of core tiles, point counts sum to the points in core tiles,
    and every cluster_id is the min packed cell of its own component
    (so ids are distinct and each >= 0)."""
    from polylabel_rs_ray.pipelines.queries_ext115 import (
        MINPTS, _tile_hist, q_dbscan_tile_clusters,
    )

    d = q_dbscan_tile_clusters(SF).to_pandas()
    n, hist = _tile_hist(SF)
    core = hist[hist["c"] >= MINPTS]
    assert d["n_cells"].sum() == len(core)
    assert d["n_points"].sum() == core["c"].sum()
    assert d["cluster_id"].is_unique
    assert (d["n_points"] >= MINPTS * 1).all()


def test_letter_freq_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext115 import (
        _sql_letter_frequency_matrix, q_letter_frequency_matrix,
    )

    d = q_letter_frequency_matrix(SF).to_pandas()
    o = con.execute(_sql_letter_frequency_matrix()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_letter_freq_vs_python_recount(ray_session):
    """The zero-copy buffer kernel agrees with a plain Python counter."""
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.queries_ext115 import (
        _LETTERS, q_letter_frequency_matrix,
    )

    d = q_letter_frequency_matrix(SF).to_pandas()
    t = pq.read_table(f"{SF}/documents.parquet", columns=["lang", "text"])
    expect = {}
    for lg, tx in zip(t.column("lang").to_pylist(),
                      t.column("text").to_pylist()):
        for ch in tx:
            if ch in _LETTERS:
                expect[(lg, ch)] = expect.get((lg, ch), 0) + 1
    got = {(r.lang, r.letter): int(r.c) for r in d.itertuples()}
    for key, v in expect.items():
        assert got[key] == v
    # full 26-letter grid emitted per language, zeros included
    langs = {k[0] for k in got}
    assert len(got) == len(langs) * 26
    assert sum(got.values()) == sum(expect.values())
