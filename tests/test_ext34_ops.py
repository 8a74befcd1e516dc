"""Extension batch 34: distributed BPE merge training vs pure-Python BPE."""

from collections import Counter

import duckdb

SF = "/root/testdata/sf0.001"


def _ref_words():
    con = duckdb.connect()
    texts = con.execute(
        f"SELECT text FROM '{SF}/documents.parquet'"
    ).fetchall()
    words = Counter()
    for (t,) in texts:
        for w in (t or "").lower().split():
            if w.isascii() and w.isalpha():
                words[w] += 1
    return words


def _ref_bpe(words: Counter, k: int, eow: str):
    """Reference BPE (Sennrich et al.): greedy left-to-right merge apply,
    ties (count DESC, pair tuple ASC)."""
    vocab = {tuple(list(w) + [eow]): c for w, c in words.items()}
    merges = []
    for _ in range(k):
        pairs = Counter()
        for syms, c in vocab.items():
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), cnt = best
        merges.append((a, b, cnt))
        new_vocab = {}
        for syms, c in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + c
        vocab = new_vocab
    return merges


def test_bpe_merges_match_reference(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext34 import EOW, q_bpe_merges

    got = q_bpe_merges(SF).to_pandas().sort_values("rank")
    ref = _ref_bpe(_ref_words(), 8, EOW)
    assert len(got) == len(ref) == 8
    for row, (a, b, cnt) in zip(got.itertuples(), ref):
        assert (row.left, row.right, row.pair_count) == (a, b, cnt)
    # counts are non-increasing is NOT guaranteed by BPE (a merge can create
    # a more frequent pair), but every count is positive and ranks are 1..8
    assert (got["pair_count"] > 0).all()
    assert list(got["rank"]) == list(range(1, 9))


def test_bpe_greedy_overlap_rule(ray_session):
    """'a a a' with pair (a,a) merges left-to-right to ('aa','a'), never
    ('a','aa') — the run-parity vectorization implements exactly that."""
    import pyarrow as pa

    from polylabel_rs_ray.pipelines.queries_ext34 import _apply_merge

    t = pa.table({
        "syms": pa.array([["a", "a", "a", "x"], ["a", "b", "a", "a"]],
                         type=pa.list_(pa.string())),
        "cnt": pa.array([1, 1], type=pa.int64()),
    })
    out = _apply_merge("a", "a")(t)
    assert out.column("syms").to_pylist() == [
        ["aa", "a", "x"], ["a", "b", "aa"],
    ]
    # four in a row -> two merged symbols
    t2 = pa.table({
        "syms": pa.array([["a", "a", "a", "a"]], type=pa.list_(pa.string())),
        "cnt": pa.array([1], type=pa.int64()),
    })
    assert _apply_merge("a", "a")(t2).column("syms").to_pylist() == [["aa", "aa"]]
    # merges never cross word boundaries
    t3 = pa.table({
        "syms": pa.array([["x", "a"], ["a", "y"]], type=pa.list_(pa.string())),
        "cnt": pa.array([1, 1], type=pa.int64()),
    })
    assert _apply_merge("a", "a")(t3).column("syms").to_pylist() == [
        ["x", "a"], ["a", "y"],
    ]


def test_bpe_word_freqs_match_duckdb(ray_session):
    """The corpus pass (the only full-scan stage) is oracle-exact."""
    from polylabel_rs_ray.pipelines.queries_ext34 import _word_freq_table

    got = _word_freq_table(SF).to_pandas().sort_values("word").reset_index(drop=True)
    ref = _ref_words()
    assert dict(zip(got["word"], got["cnt"])) == dict(ref)
