"""Extension batch 81: Ripley's K pair counts + skip-window co-occurrence."""

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


def test_ripley_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext81 import (
        _sql_ripley_k_counts, q_ripley_k_counts,
    )

    d = q_ripley_k_counts(SF).to_pandas()
    o = con.execute(_sql_ripley_k_counts()).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_ripley_monotone_in_radius(ray_session):
    """Pair counts are monotone in r and bounded by n(n-1)."""
    from polylabel_rs_ray.pipelines.queries_ext81 import (
        RIPLEY_RADII, q_ripley_k_counts,
    )
    from polylabel_rs_ray.pipelines.queries import _dyadic_labeled

    d = q_ripley_k_counts(SF).to_pandas().iloc[0]
    vals = [int(d[f"n_pairs_r{r}"]) for r in RIPLEY_RADII]
    assert vals == sorted(vals)
    n = _dyadic_labeled(SF).count()
    assert vals[-1] <= n * (n - 1)
    # ordered-pair symmetry: every count is even
    assert all(v % 2 == 0 for v in vals)


def test_cooc_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext81 import (
        SQL_COOCCURRENCE_WINDOW_COUNTS, q_cooccurrence_window_counts,
    )

    d = q_cooccurrence_window_counts(SF)
    o = con.execute(SQL_COOCCURRENCE_WINDOW_COUNTS).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))
    assert int(d["n_cooc"].iloc[0]) > 0


def test_cooc_brute_force_replay(ray_session, con):
    """Recount the windowed pairs with a naive double loop over a sample of
    documents containing both words."""
    from polylabel_rs_ray.pipelines.queries_ext81 import (
        COOC_WINDOW, q_cooccurrence_window_counts,
    )

    d = q_cooccurrence_window_counts(SF).iloc[0]
    wa, wb = d["word_a"], d["word_b"]
    texts = con.execute("SELECT text FROM documents").df()["text"].tolist()
    total = 0
    for t in texts:
        toks = (t or "").lower().split()
        pa_ = [i for i, w in enumerate(toks) if w == wa]
        pb_ = [i for i, w in enumerate(toks) if w == wb]
        total += sum(1 for i in pa_ for j in pb_
                     if abs(i - j) <= COOC_WINDOW)
    assert int(d["n_cooc"]) == total
