"""Extension batch 191: vocab edit medoid + anchor-pair LCS."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents",):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_medoid_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext191 import (
        SQL_VOCAB_EDIT_MEDOID, q_vocab_edit_medoid,
    )

    d = q_vocab_edit_medoid(SF).to_pandas()
    o = con.execute(SQL_VOCAB_EDIT_MEDOID).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert int(d["is_medoid"].sum()) == 1


def test_medoid_metric_axioms(ray_session):
    """Engine Levenshtein: identity, symmetry, triangle inequality spot
    checks, and agreement with python-Levenshtein-free reference."""
    from polylabel_rs_ray.pipelines.queries_ext191 import (
        _lev, q_vocab_edit_medoid,
    )

    assert _lev("kitten", "sitting") == 3
    assert _lev("", "abc") == 3
    assert _lev("abc", "abc") == 0
    words = ["sort", "short", "shirt", "spark", "scan"]
    for a in words:
        for b in words:
            assert _lev(a, b) == _lev(b, a)
            for c in words:
                assert _lev(a, c) <= _lev(a, b) + _lev(b, c)
    d = q_vocab_edit_medoid(SF).to_pandas()
    med = d[d["is_medoid"] == 1].iloc[0]
    assert int(med["total_dist"]) == int(d["total_dist"].min())


def test_lcs_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext191 import (
        SQL_ANCHOR_PAIR_LCS, q_anchor_pair_lcs,
    )

    d = q_anchor_pair_lcs(SF).to_pandas()
    o = con.execute(SQL_ANCHOR_PAIR_LCS).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_lcs_properties(ray_session, con):
    """Recursive reference LCS on the same two docs; bounds; the LCS of
    a sequence with itself is its length."""
    from functools import lru_cache

    from polylabel_rs_ray.pipelines.queries_ext191 import (
        q_anchor_pair_lcs,
    )

    d = q_anchor_pair_lcs(SF).to_pandas().iloc[0]
    texts = con.execute(
        "SELECT text FROM documents ORDER BY doc_id LIMIT 2").fetchall()
    a = texts[0][0].split(" ")
    b = texts[1][0].split(" ")

    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    import sys

    sys.setrecursionlimit(100000)
    want = lcs(len(a), len(b))
    assert int(d["lcs_len"]) == want
    assert int(d["len_a"]) == len(a) and int(d["len_b"]) == len(b)
    assert 0 < want <= min(len(a), len(b))
