"""Extension batch 36: PPJoin-style exact similarity join."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_jaccard_join_matches_exhaustive_oracle(ray_session, con):
    from polylabel_rs_ray.pipelines.queries import _sql_minhash_near_dup
    from polylabel_rs_ray.pipelines.queries_ext36 import q_jaccard_join_exact

    d = _sorted(q_jaccard_join_exact(SF).to_pandas())
    o = con.execute(_sql_minhash_near_dup()).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_two_algorithms_agree(ray_session):
    """PPJoin (deterministic-complete) and banded LSH (probabilistic) find
    the identical pair set with identical similarities on this corpus."""
    from polylabel_rs_ray.pipelines.queries import q_minhash_near_dup
    from polylabel_rs_ray.pipelines.queries_ext36 import q_jaccard_join_exact

    a = _sorted(q_jaccard_join_exact(SF).to_pandas())
    b = _sorted(q_minhash_near_dup(SF).to_pandas())
    assert a.equals(b)


def test_prefix_filter_is_complete_vs_brute_force(ray_session):
    """Every brute-force pair with J >= tau survives candidate generation
    (the prefix-filter completeness theorem, checked empirically)."""
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.dedup import jaccard_pct_exact, shingle_strs
    from polylabel_rs_ray.pipelines.queries import (
        DUP_EVERY, DUP_OFFSET, mutate_text,
    )
    from polylabel_rs_ray.pipelines.queries_ext36 import q_jaccard_join_exact

    base = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    corpus = {}
    for i, t in zip(base.column("doc_id").to_pylist(),
                    base.column("text").to_pylist()):
        corpus[int(i)] = t
        if int(i) % DUP_EVERY == 0:
            corpus[int(i) + DUP_OFFSET] = mutate_text(t, int(i))
    sets = {i: shingle_strs(t) for i, t in corpus.items()}
    ids = sorted(sets)
    expect = set()
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            i, u = jaccard_pct_exact(sets[ids[x]], sets[ids[y]])
            if 2 * i >= u:
                expect.add((ids[x], ids[y]))

    got = q_jaccard_join_exact(SF).to_pandas()
    found = set(zip(got["doc_a"], got["doc_b"]))
    assert found == expect
    # planted dups are actually found
    assert any(b - a == DUP_OFFSET for a, b in found)


def test_jaccard_join_partition_invariant(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext36 import q_jaccard_join_exact

    a = _sorted(q_jaccard_join_exact(SF, n_parts=1).to_pandas())
    b = _sorted(q_jaccard_join_exact(SF, n_parts=5).to_pandas())
    assert a.equals(b)
