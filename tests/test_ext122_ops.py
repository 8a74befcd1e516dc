"""Extension batch 122: rare-bigram scoring + duplicate-trigram coverage."""

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


def test_rare_bigrams_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext122 import (
        SQL_RARE_BIGRAM_DOCS, q_rare_bigram_docs,
    )

    d = q_rare_bigram_docs(SF).to_pandas()
    o = con.execute(SQL_RARE_BIGRAM_DOCS).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_rare_bigrams_nontrivial(ray_session):
    """The rank-based threshold must yield a non-degenerate signal:
    some rare occurrences exist, not every bigram is rare, and the
    per-doc bounds hold (occ <= n_bigrams, distinct <= occ)."""
    from polylabel_rs_ray.pipelines.queries_ext122 import q_rare_bigram_docs

    d = q_rare_bigram_docs(SF).to_pandas()
    assert d["n_rare_occ"].sum() > 0
    assert (d["n_rare_occ"] < d["n_bigrams"]).any()
    assert (d["n_rare_occ"] <= d["n_bigrams"]).all()
    assert (d["n_rare_distinct"] <= d["n_rare_occ"]).all()


def test_trigram_coverage_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext122 import (
        SQL_DUP_TRIGRAM_COVERAGE, q_dup_trigram_coverage,
    )

    d = q_dup_trigram_coverage(SF).to_pandas()
    o = con.execute(SQL_DUP_TRIGRAM_COVERAGE).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_trigram_coverage_brute(ray_session, con):
    """Pure-Python Counter twin over every doc, plus the coverage
    bounds covered <= min(3*dup_occ, n_tokens)."""
    from collections import Counter

    from polylabel_rs_ray.pipelines.queries_ext122 import (
        q_dup_trigram_coverage,
    )

    d = q_dup_trigram_coverage(SF).to_pandas().set_index("doc_id")
    texts = con.execute("SELECT doc_id, text FROM documents").df()
    n_checked = 0
    for r in texts.itertuples():
        toks = (r.text or "").lower().split()
        tris = list(zip(toks, toks[1:], toks[2:]))
        cnt = Counter(tris)
        dup_idx = [i for i, g in enumerate(tris) if cnt[g] >= 2]
        covered = set()
        for i in dup_idx:
            covered.update((i, i + 1, i + 2))
        row = d.loc[r.doc_id]
        assert row["n_tokens"] == len(toks)
        assert row["n_trigrams"] == max(len(toks) - 2, 0)
        assert row["n_dup_occ"] == len(dup_idx)
        assert row["covered_pos"] == len(covered)
        assert row["covered_pos"] <= min(3 * row["n_dup_occ"], len(toks))
        n_checked += 1
    assert n_checked == len(d)
