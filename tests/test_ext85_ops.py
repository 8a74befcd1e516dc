"""Extension batch 85: Merkle root + grid coverage classification."""

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


def test_merkle_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext85 import (
        _sql_doc_merkle_root, q_doc_merkle_root,
    )

    d = q_doc_merkle_root(SF)
    o = con.execute(_sql_doc_merkle_root()).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))
    assert len(d["merkle_root"].iloc[0]) == 32  # md5 hex


def test_merkle_detects_any_leaf_change():
    """Changing a single leaf changes the root (avalanche through the
    fold) — the property the checkpoint verification relies on."""
    from polylabel_rs_ray.pipelines.queries_ext85 import (
        MERKLE_SLOTS, PAD_LEAF_SEED, _md5_hex,
    )

    def root(leaves):
        pad = _md5_hex(PAD_LEAF_SEED)
        hs = leaves + [pad] * (MERKLE_SLOTS - len(leaves))
        while len(hs) > 1:
            hs = [_md5_hex(hs[i] + hs[i + 1])
                  for i in range(0, len(hs), 2)]
        return hs[0]

    base = [_md5_hex(f"{i}:x") for i in range(10)]
    r0 = root(base)
    for mutate in (0, 5, 9):
        mutated = list(base)
        mutated[mutate] = _md5_hex(f"{mutate}:y")
        assert root(mutated) != r0


def test_coverage_matches_oracle(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext85 import (
        _sql_cell_coverage_stats, q_cell_coverage_stats,
    )

    d = q_cell_coverage_stats(SF).to_pandas()
    o = con.execute(_sql_cell_coverage_stats()).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_coverage_closure_and_counts():
    """Covered area == polygon area (clip closure); cells sum to 16;
    engine == twin."""
    from polylabel_rs_ray.pipelines.queries_ext65 import _shoelace_abs
    from polylabel_rs_ray.pipelines.queries_ext85 import (
        GRID_N, _coverage_one, _twin_coverage,
    )
    from polylabel_rs_ray.pipelines.queries_ext import _norm_exterior
    from polylabel_rs_ray.sources.fixtures import DYADIC_FIXTURES, FIXTURES

    for name in DYADIC_FIXTURES:
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings])
        nf, npart, ne, cov = _coverage_one(ext)
        assert (nf, npart, ne, cov) == _twin_coverage(ext), name
        assert nf + npart + ne == GRID_N * GRID_N
        poly = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
        assert cov == pytest.approx(_shoelace_abs(poly), abs=1e-9), name


def test_coverage_full_square():
    """A full square covers every cell fully."""
    from polylabel_rs_ray.pipelines.queries_ext85 import (
        GRID_N, _coverage_one,
    )

    sq = np.array([(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0),
                   (0.0, 0.0)])
    nf, npart, ne, cov = _coverage_one(sq)
    assert (nf, npart, ne) == (GRID_N * GRID_N, 0, 0)
    assert cov == 64.0
