"""Extension batch 186: dominance counts + vocabulary borders."""

import duckdb
import numpy as np
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


def test_dominance_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext186 import (
        _sql_label_dominance_counts, q_label_dominance_counts,
    )

    d = q_label_dominance_counts(SF).to_pandas()
    o = con.execute(_sql_label_dominance_counts()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert (d["n_dominated"] > 0).any()


def test_dominance_quadratic_twin(ray_session):
    """Direct numpy pair matrix over the distinct points."""
    from polylabel_rs_ray.pipelines.queries_ext186 import (
        q_label_dominance_counts,
    )

    d = q_label_dominance_counts(SF).to_pandas()
    x = d["dx"].to_numpy().astype(np.int64)
    y = d["dy"].to_numpy().astype(np.int64)
    want = ((x[None, :] < x[:, None]) & (y[None, :] < y[:, None])).sum(1)
    assert np.array_equal(d["n_dominated"].to_numpy(), want)
    # distinctness of points
    assert len(set(zip(x.tolist(), y.tolist()))) == len(d)


def test_borders_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext186 import (
        SQL_VOCAB_BORDERS, q_vocab_borders,
    )

    d = q_vocab_borders(SF).to_pandas()
    o = con.execute(SQL_VOCAB_BORDERS).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_borders_definition(ray_session):
    """Border really is a border; maximality holds; period divides
    cleanly for fully periodic words; known vectors."""
    from polylabel_rs_ray.pipelines.queries_ext186 import q_vocab_borders

    d = q_vocab_borders(SF).to_pandas()
    for r in d.itertuples():
        w, b = r.w, int(r.border_len)
        L = len(w)
        assert 0 <= b < L
        assert w[:b] == w[L - b:] or b == 0
        for k in range(b + 1, L):
            assert w[:k] != w[L - k:], (w, k)
        assert int(r.period) == L - b
        # period property: w is a prefix of (w[:period] repeated)
        p = int(r.period)
        assert w == (w[:p] * (L // p + 1))[:L]

    # classic vectors through the same KMP code path

    def kmp_border(w):
        pi = [0] * len(w)
        k = 0
        for i in range(1, len(w)):
            while k > 0 and w[i] != w[k]:
                k = pi[k - 1]
            if w[i] == w[k]:
                k += 1
            pi[i] = k
        return pi[-1] if w else 0

    assert kmp_border("abab") == 2
    assert kmp_border("aaaa") == 3
    assert kmp_border("abc") == 0
