"""Extension batch 22: rare-token quality scoring vs brute force."""


SF = "/root/testdata/sf0.001"


def test_rare_token_stats_matches_bruteforce(ray_session):
    from collections import Counter

    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.queries_ext22 import (
        RARE_MIN_FREQ,
        q_rare_token_stats,
    )

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    freq = Counter()
    for t in docs["text"]:
        freq.update(t.split(" "))
    want = {}
    for did, t in zip(docs["doc_id"], docs["text"]):
        toks = t.split(" ")
        n_rare = sum(1 for w in toks if freq[w] < RARE_MIN_FREQ)
        n = len(toks)
        pct = (200 * n_rare + n) // (2 * n) if n else 0
        want[int(did)] = (n, n_rare, pct)

    got = q_rare_token_stats(SF).to_pandas().set_index("doc_id")
    assert len(got) == len(want)
    for did, (n, r, pct) in want.items():
        row = got.loc[did]
        assert (row["n_tokens"], row["n_rare"], row["rare_pct"]) == (n, r, pct)


def test_common_vocab_is_the_bounded_side(ray_session):
    """|common| <= total_tokens / RARE_MIN_FREQ (pigeonhole) — the bound
    that justifies the driver collect + broadcast."""
    from collections import Counter

    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.queries_ext22 import RARE_MIN_FREQ

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    freq = Counter()
    total = 0
    for t in docs["text"]:
        toks = t.split(" ")
        total += len(toks)
        freq.update(toks)
    common = sum(1 for v in freq.values() if v >= RARE_MIN_FREQ)
    assert common <= total // RARE_MIN_FREQ
