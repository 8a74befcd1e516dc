"""Extension batch 118: fixture tile IoU + discrete Hausdorff pairs."""

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


def test_iou_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext118 import (
        _sql_fixture_tile_iou, q_fixture_tile_iou,
    )

    d = q_fixture_tile_iou(SF).to_pandas()
    o = con.execute(_sql_fixture_tile_iou()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_iou_set_algebra(ray_session):
    """Full C(4,2)=6 pair matrix, inter <= min size <= union, and the
    union identity |A|+|B| = inter + union."""
    from polylabel_rs_ray.pipelines.queries_ext118 import q_fixture_tile_iou

    d = q_fixture_tile_iou(SF).to_pandas()
    assert len(d) == 6
    assert (d["fix_a"] < d["fix_b"]).all()
    assert (d["inter_tiles"] >= 0).all()
    assert (d["union_tiles"] >= d["inter_tiles"]).all()
    # recover per-fixture sizes from any two rows sharing the fixture
    # via |A| + |B| = inter + union, and check consistency across rows
    sizes = {}
    rows = {(r.fix_a, r.fix_b): (r.inter_tiles, r.union_tiles)
            for r in d.itertuples()}
    fixtures = sorted(set(d["fix_a"]) | set(d["fix_b"]))
    # solve: s_a + s_b = inter+union for all pairs — overdetermined,
    # consistent iff the engine's set algebra is coherent
    import numpy.linalg as la
    idx = {f: i for i, f in enumerate(fixtures)}
    A, b = [], []
    for (fa, fb), (it, un) in rows.items():
        row = np.zeros(len(fixtures))
        row[idx[fa]] = 1
        row[idx[fb]] = 1
        A.append(row)
        b.append(it + un)
    sol, res, *_ = la.lstsq(np.array(A), np.array(b), rcond=None)
    assert np.allclose(np.array(A) @ sol, np.array(b))
    assert (sol > 0).all()


def test_hausdorff_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext118 import (
        _sql_hausdorff_fixture_pairs, q_hausdorff_fixture_pairs,
    )

    d = q_hausdorff_fixture_pairs(SF).to_pandas()
    o = con.execute(_sql_hausdorff_fixture_pairs()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_hausdorff_properties(ray_session):
    """Directed Hausdorff²: zero iff target vertex set contains the
    source's (here never — consecutive dyadic fixtures differ), values
    are per-fixture constants, and the scipy-free brute twin agrees on
    one doc per fixture."""
    from polylabel_rs_ray.pipelines.queries_ext118 import (
        _fixture_norm_ext, _independent_hausdorff, _next_dyadic,
        q_hausdorff_fixture_pairs,
    )
    from polylabel_rs_ray.sources.fixtures import FIXTURE_CYCLE

    d = q_hausdorff_fixture_pairs(SF).to_pandas()
    assert (d["haus_sq_fwd"] > 0).all()
    assert (d["haus_sq_rev"] > 0).all()
    for fix_idx, grp in d.groupby("fixture_idx"):
        assert grp["haus_sq_fwd"].nunique() == 1
        assert grp["haus_sq_rev"].nunique() == 1
        p = _fixture_norm_ext(FIXTURE_CYCLE[int(fix_idx)])
        q = _fixture_norm_ext(FIXTURE_CYCLE[_next_dyadic(int(fix_idx))])
        fwd, rev = _independent_hausdorff(
            [tuple(map(float, r)) for r in p],
            [tuple(map(float, r)) for r in q])
        assert grp["haus_sq_fwd"].iloc[0] == fwd
        assert grp["haus_sq_rev"].iloc[0] == rev
