"""Extension batch 176: marching squares + Allen relation histogram."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_marching_squares_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext176 import (
        _sql_marching_squares_cases, q_marching_squares_cases,
    )

    d = q_marching_squares_cases(SF).to_pandas()
    o = con.execute(_sql_marching_squares_cases()).df()
    assert len(d) == len(o) > 5
    assert _norm(d).equals(_norm(o))


def test_marching_squares_identities(ray_session):
    """Window mass = (n-1)²; a contour is closed: total segments are
    even; per-window scalar reclassification agrees."""
    from polylabel_rs_ray.pipelines.queries_ext159 import _lattice_res
    from polylabel_rs_ray.pipelines.queries_ext176 import (
        MS_RES, MS_SEGMENTS, q_marching_squares_cases,
    )

    d = q_marching_squares_cases(SF).to_pandas()
    lat = _lattice_res(SF, MS_RES)
    n = lat.shape[0]
    occ = lat > 0
    assert int(d["n_windows"].sum()) == (n - 1) ** 2
    assert int(d["n_segments"].sum()) % 2 == 0
    hist = {}
    for x in range(n - 1):
        for y in range(n - 1):
            cid = (int(occ[x, y]) + 2 * int(occ[x + 1, y])
                   + 4 * int(occ[x + 1, y + 1]) + 8 * int(occ[x, y + 1]))
            hist[cid] = hist.get(cid, 0) + 1
    got = dict(zip(d["case_id"].astype(int), d["n_windows"].astype(int)))
    assert got == hist
    for r in d.itertuples():
        per = MS_SEGMENTS.get(int(r.case_id), 1)
        assert int(r.n_segments) == per * int(r.n_windows)


def test_allen_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext176 import (
        SQL_ALLEN_RELATION_HISTOGRAM, q_allen_relation_histogram,
    )

    d = q_allen_relation_histogram(SF).to_pandas()
    o = con.execute(SQL_ALLEN_RELATION_HISTOGRAM).df()
    assert len(d) == len(o) >= 4  # several relations populated
    assert _norm(d).equals(_norm(o))


def test_allen_scalar_twin_and_mass(ray_session, con):
    """Scalar per-pair classification with the same precedence; total
    pair mass = Σ_user C(types_u, 2)."""
    from polylabel_rs_ray.pipelines.queries_ext176 import (
        q_allen_relation_histogram,
    )

    d = q_allen_relation_histogram(SF).to_pandas()
    iv = con.execute("""
        SELECT user_id, event_type,
               MIN(epoch_us(ts)) // 86400000000 AS s,
               MAX(epoch_us(ts)) // 86400000000 AS e
        FROM events GROUP BY 1, 2""").df()
    want = {}
    total_pairs = 0
    for uid, grp in iv.groupby("user_id"):
        rows = sorted(
            (int(r.s), int(r.e), r.event_type) for r in grp.itertuples())
        k = len(rows)
        total_pairs += k * (k - 1) // 2
        for i in range(k):
            for j in range(i + 1, k):
                s1, e1, _ = rows[i]
                s2, e2, _ = rows[j]
                if s1 == s2 and e1 == e2:
                    rel = "equals"
                elif e1 < s2:
                    rel = "before"
                elif e2 < s1:
                    rel = "before_i"
                elif e1 == s2:
                    rel = "meets"
                elif e2 == s1:
                    rel = "meets_i"
                elif s1 == s2 and e1 < e2:
                    rel = "starts"
                elif s1 == s2 and e2 < e1:
                    rel = "starts_i"
                elif e1 == e2 and s1 > s2:
                    rel = "finishes"
                elif e1 == e2 and s2 > s1:
                    rel = "finishes_i"
                elif s1 > s2 and e1 < e2:
                    rel = "during"
                elif s2 > s1 and e2 < e1:
                    rel = "during_i"
                elif s1 < s2 and e1 > s2 and e1 < e2:
                    rel = "overlaps"
                else:
                    rel = "overlaps_i"
                want[rel] = want.get(rel, 0) + 1
    got = dict(zip(d["relation"], d["n"].astype(int)))
    assert got == want
    assert int(d["n"].sum()) == total_pairs
