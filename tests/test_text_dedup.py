"""Text analysis + dedup kernels and their pipelines."""

import numpy as np
import pyarrow as pa

from polylabel_rs_ray.pipelines.dedup import (
    MinHasher,
    band_hashes_batch,
    hamming64,
    jaccard,
    shingles,
    simhash64_batch,
)
from polylabel_rs_ray.pipelines.text import (
    fingerprint_one,
    lang_id_one,
    quality_batch,
    token_counts_batch,
)

SF = "/root/testdata/sf0.001"


def test_lang_id_heuristic():
    assert lang_id_one("the cat and the dog sat in the house") == "en"
    assert lang_id_one("le chat et le chien est dans la maison") == "fr"
    assert lang_id_one("der Hund und die Katze ist nicht hier") == "de"
    assert lang_id_one("你好世界 这是一个测试 谢谢") == "zh"
    assert lang_id_one("") == "und"


def test_quality_batch():
    t = quality_batch(pa.array(["The cat, the hat!", ""]))
    row = t.to_pylist()[0]
    assert row["n_tokens"] == 4
    assert row["punct_count"] == 2
    assert row["stopword_hits"] == 2  # 'the' twice ('the' in 'The'->'the')
    assert t.to_pylist()[1]["n_tokens"] == 0


def test_token_counts():
    t = token_counts_batch(pa.array(["hello world 123 foo-bar!"]))
    row = t.to_pylist()[0]
    assert row["n_ws_tokens"] == 4
    assert row["n_bpe_tokens"] == 7  # hello world 123 foo - bar !


def test_fingerprint_stability():
    assert fingerprint_one("abc") == fingerprint_one("abc")
    assert fingerprint_one("abc") != fingerprint_one("acb")  # order-sensitive
    assert 0 <= fingerprint_one("x" * 1000) < (1 << 61) - 1


def test_minhash_jaccard_approximation():
    mh = MinHasher()
    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = a.replace("lazy", "sleepy")
    sa, sb = shingles(a), shingles(b)
    true_j = jaccard(sa, sb)
    siga, sigb = mh.signature(a), mh.signature(b)
    est = (siga == sigb).mean()
    assert abs(est - true_j) < 0.25
    # identical docs share every band; distinct docs share none (w.h.p.)
    other = mh.signature("completely different words everywhere entirely unrelated")
    bands = band_hashes_batch(np.stack([siga, mh.signature(a), other]))
    assert (bands[0] == bands[1]).all()
    assert not (bands[0] == bands[2]).any()


def test_simhash_near_dup_close():
    a = "the quick brown fox jumps over the lazy dog " * 3
    b = a.replace("dog", "cat")
    c = "totally unrelated content about databases and query engines"
    ha, hb, hc, ha2 = (int(h) for h in simhash64_batch([a, b, c, a]))
    assert hamming64(ha, hb) < hamming64(ha, hc)
    assert ha == ha2
    assert ha >= 0  # int64-safe


def test_minhash_pipeline_finds_planted_dups(ray_session):
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.queries import (
        DUP_EVERY,
        DUP_OFFSET,
        mutate_text,
        q_minhash_near_dup,
    )

    df = q_minhash_near_dup(SF).to_pandas()
    got = set(zip(df.doc_a, df.doc_b))

    # ground truth: planted pairs whose true word-3-gram Jaccard clears the
    # verification threshold (short docs legitimately fall below it)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pylist()
    above = set()
    for r in docs:
        i = int(r["doc_id"])
        if i % DUP_EVERY:
            continue
        j = jaccard(shingles(r["text"]), shingles(mutate_text(r["text"], i)))
        if j >= 0.55:
            above.add((i, i + DUP_OFFSET))
    assert above, "no plantable pairs?"
    recall = len(above & got) / len(above)
    assert recall == 1.0, f"above-threshold planted recall {recall}"
    # nothing below the verify threshold leaks through
    assert (df.jaccard_pct >= 50).all()


def test_minhash_partitioned_equals_single_task(ray_session):
    """The bucket-hash-partitioned candidate sweep must produce the exact
    pair set of the 1-partition sweep (global pair dedup before verify)."""
    from polylabel_rs_ray.pipelines.queries import q_minhash_near_dup

    df1 = q_minhash_near_dup(SF, n_parts=1).to_pandas()
    df8 = q_minhash_near_dup(SF, n_parts=8).to_pandas()
    s1 = set(zip(df1.doc_a, df1.doc_b, df1.jaccard_pct))
    s8 = set(zip(df8.doc_a, df8.doc_b, df8.jaccard_pct))
    assert s1 == s8 and len(s1) > 0


def test_dedup_clusters_match_union_find(ray_session):
    """Distributed min-label propagation == driver-side union-find over the
    same verified pair set (component rep = min doc_id)."""
    import collections

    from polylabel_rs_ray.pipelines.queries import q_dedup_clusters, q_minhash_near_dup

    df = q_dedup_clusters(SF).to_pandas()
    pairs = q_minhash_near_dup(SF).to_pandas()
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.doc_a, pairs.doc_b):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = collections.defaultdict(list)
    for n in parent:
        comp[find(n)].append(n)
    ref = {n: min(members) for members in comp.values() for n in members}
    got = dict(zip(df.doc_id, df.cluster_id))
    assert got == ref and len(got) > 0

def test_split_and_packing_match_duckdb(ray_session):
    """Hash train/test split and distributed prefix-sum token packing ==
    their SQL window/md5 oracles."""
    import duckdb

    from polylabel_rs_ray.pipelines.queries import (
        SQL_TOKEN_PACKING,
        SQL_TRAIN_TEST_SPLIT,
        q_token_packing,
        q_train_test_split,
    )

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    for q, sql in [
        (q_train_test_split, SQL_TRAIN_TEST_SPLIT),
        (q_token_packing, SQL_TOKEN_PACKING),
    ]:
        d = q(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        o = con.execute(sql).df().sort_values("doc_id").reset_index(drop=True)
        assert len(d) > 0 and d.equals(o[list(d.columns)].astype(d.dtypes.to_dict()))

def test_top_bigrams_match_duckdb(ray_session):
    import duckdb

    from polylabel_rs_ray.pipelines.queries import SQL_TOP_BIGRAMS, q_top_bigrams

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    d = q_top_bigrams(SF).to_pandas().reset_index(drop=True)
    o = con.execute(SQL_TOP_BIGRAMS).df()[list(d.columns)].astype(d.dtypes.to_dict())
    assert len(d) == 20 and d.equals(o)

def test_bloom_no_false_negatives():
    from polylabel_rs_ray.pipelines.bloom import (
        bloom_contains,
        bloom_size_bits,
        _hash_pair,
        _set_bits,
    )

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 1 << 60, 50_000).astype(np.int64)
    m = bloom_size_bits(len(keys))
    bits = np.zeros(m // 64, dtype=np.uint64)
    for idx in _hash_pair(keys.astype(np.uint64), m):
        _set_bits(bits, idx)
    assert bloom_contains(bits, keys).all()  # never a false negative
    other = rng.integers(1 << 61, 1 << 62, 50_000).astype(np.int64)
    fp = bloom_contains(bits, other).mean()
    assert fp < 0.02, fp

def test_jaccard_exact_gate_delegates_to_minhash(ray_session, monkeypatch, caplog):
    """Past the vocabulary-derived corpus bound the exact PPJoin delegates
    to the value-equal banded-LSH path (quadratic candidate volume once the
    trigram vocabulary saturates — VERDICT r4 finding #1); force_exact=True
    overrides the gate and runs the deterministic-complete join."""
    import logging

    from polylabel_rs_ray.pipelines import queries_ext36 as m
    from polylabel_rs_ray.pipelines.queries import q_minhash_near_dup

    # shrink the gate below this corpus so the delegation branch fires
    monkeypatch.setattr(m, "JACCARD_EXACT_MAX_DOCS", 10)
    with caplog.at_level(logging.WARNING, logger=m.__name__):
        gated = m.q_jaccard_join_exact(SF).to_pandas()
    assert any("delegating" in r.message for r in caplog.records)
    lsh = q_minhash_near_dup(SF).to_pandas()
    key = lambda df: sorted(zip(df.doc_a, df.doc_b, df.jaccard_pct))
    assert key(gated) == key(lsh) and len(gated) > 0

    # the override keeps the exact path available (and value-equal) even
    # past the gate — no delegation log this time
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=m.__name__):
        forced = m.q_jaccard_join_exact(SF, force_exact=True).to_pandas()
    assert not any("delegating" in r.message for r in caplog.records)
    assert key(forced) == key(lsh)
