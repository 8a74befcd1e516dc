"""Extension batch 182: document suffix array + skip-list levels."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "orders"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_suffix_array_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext182 import (
        SQL_DOC_SUFFIX_ARRAY, q_doc_suffix_array,
    )

    d = q_doc_suffix_array(SF).to_pandas()
    o = con.execute(SQL_DOC_SUFFIX_ARRAY).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_suffix_array_definition(ray_session, con):
    """Direct naive verification: sorting all suffixes with Python gives
    the same permutation, and every lcp_prev is the true common-prefix
    length with the previous-ranked suffix."""
    from polylabel_rs_ray.pipelines.queries_ext182 import (
        q_doc_suffix_array,
    )

    d = q_doc_suffix_array(SF).to_pandas().sort_values("rank")
    text = con.execute("""
        SELECT text FROM documents
        WHERE doc_id = (SELECT MIN(doc_id) FROM documents)""").fetchone()[0]
    L = len(text)
    order = sorted(range(L), key=lambda i: text[i:])
    assert d["pos"].tolist() == order
    for r in range(1, L):
        a, b = text[order[r - 1]:], text[order[r]:]
        h = 0
        while h < min(len(a), len(b)) and a[h] == b[h]:
            h += 1
        assert int(d["lcp_prev"].iloc[r]) == h, r
    assert int(d["lcp_prev"].iloc[0]) == 0
    # suffix array is a permutation
    assert sorted(d["pos"]) == list(range(L))


def test_skiplist_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext182 import (
        SQL_SKIPLIST_LEVEL_HISTOGRAM, q_skiplist_level_histogram,
    )

    d = q_skiplist_level_histogram(SF).to_pandas()
    o = con.execute(SQL_SKIPLIST_LEVEL_HISTOGRAM).df()
    assert len(d) == len(o) > 3
    assert _norm(d).equals(_norm(o))


def test_skiplist_geometric_shape(ray_session, con):
    """Mass identity, hashlib twin, and loose geometric decay: level-1
    holds roughly half the keys."""
    import hashlib

    from polylabel_rs_ray.pipelines.queries_ext182 import (
        q_skiplist_level_histogram,
    )

    d = q_skiplist_level_histogram(SF).to_pandas().set_index("level")
    keys = con.execute("SELECT o_orderkey FROM orders").df()["o_orderkey"]
    n = len(keys)
    assert int(d["n_keys"].sum()) == n
    want = {}
    for k in keys:
        h = int.from_bytes(
            hashlib.md5(str(int(k)).encode()).digest()[8:], "little")
        tz = (h & -h).bit_length() - 1 if h else 63
        want[tz + 1] = want.get(tz + 1, 0) + 1
    assert {int(k): int(v) for k, v in d["n_keys"].items()} == want
    assert 0.4 < int(d["n_keys"].get(1, 0)) / n < 0.6
