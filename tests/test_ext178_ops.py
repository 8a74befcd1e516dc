"""Extension batch 178: exact Markov stationary weights + quadtree census."""

from fractions import Fraction

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_stationary_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext178 import (
        _sql_markov_stationary_exact, q_markov_stationary_exact,
    )

    d = q_markov_stationary_exact(SF).to_pandas()
    o = con.execute(_sql_markov_stationary_exact()).df()
    assert len(d) == len(o) == 5
    assert _norm(d).equals(_norm(o))


def test_stationary_is_stationary(ray_session, con):
    """πP = π verified exactly with Fractions from the raw transition
    counts; weights positive (irreducible chain)."""
    from polylabel_rs_ray.pipelines.queries_ext178 import (
        EVENT_TYPES, q_markov_stationary_exact,
    )

    d = q_markov_stationary_exact(SF).to_pandas().set_index("event_type")
    w = {t: int(d.loc[t, "weight_str"]) for t in EVENT_TYPES}
    assert all(x > 0 for x in w.values())
    cnt = con.execute("""
        WITH seq AS (SELECT user_id, event_type,
               LEAD(event_type) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) nxt
               FROM events)
        SELECT event_type, nxt, COUNT(*) n FROM seq
        WHERE nxt IS NOT NULL GROUP BY 1, 2""").df()
    C = {(r.event_type, r.nxt): int(r.n) for r in cnt.itertuples()}
    rows = {t: sum(C.get((t, u), 0) for u in EVENT_TYPES)
            for t in EVENT_TYPES}
    for t in EVENT_TYPES:
        assert int(d.loc[t, "row_count"]) == rows[t]
    total = sum(w.values())
    pi = {t: Fraction(w[t], total) for t in EVENT_TYPES}
    for v in EVENT_TYPES:
        lhs = sum(pi[u] * Fraction(C.get((u, v), 0), rows[u])
                  for u in EVENT_TYPES)
        assert lhs == pi[v], v


def test_quadtree_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext178 import (
        _sql_quadtree_leaf_census, q_quadtree_leaf_census,
    )

    d = q_quadtree_leaf_census(SF).to_pandas()
    o = con.execute(_sql_quadtree_leaf_census()).df()
    assert len(d) == len(o) > 2
    assert _norm(d).equals(_norm(o))


def test_quadtree_partition_property(ray_session):
    """The leaves tile the lattice exactly: Σ leaves·bs² = n²; per-value
    mass matches the occupancy; a scalar recursive quadtree agrees."""
    from polylabel_rs_ray.pipelines.queries_ext159 import _lattice_res
    from polylabel_rs_ray.pipelines.queries_ext178 import (
        QT_RES, q_quadtree_leaf_census,
    )

    d = q_quadtree_leaf_census(SF).to_pandas()
    lat = _lattice_res(SF, QT_RES)
    n = lat.shape[0]
    occ = (lat > 0).astype(int)
    area = (d["n_leaves"] * d["block_size"] ** 2).sum()
    assert int(area) == n * n
    occ_mass = int((d[d["val"] == 1]["n_leaves"]
                    * d[d["val"] == 1]["block_size"] ** 2).sum())
    assert occ_mass == int(occ.sum())

    leaves = {}

    def rec(x0, y0, bs):
        blk = occ[x0:x0 + bs, y0:y0 + bs]
        if blk.min() == blk.max():
            key = (bs, int(blk[0, 0]))
            leaves[key] = leaves.get(key, 0) + 1
            return
        h = bs // 2
        for dx in (0, h):
            for dy in (0, h):
                rec(x0 + dx, y0 + dy, h)

    rec(0, 0, n)
    got = {(int(r.block_size), int(r.val)): int(r.n_leaves)
           for r in d.itertuples()}
    assert got == leaves
