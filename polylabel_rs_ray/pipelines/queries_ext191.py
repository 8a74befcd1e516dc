"""Round-3 extension operators, batch 191: vocabulary edit-distance
medoid + anchor-pair word LCS.

``vocab_edit_medoid`` — the 1-medoid of the corpus vocabulary under
Levenshtein distance (the canonical-spelling pick of a normalization
pass): per word, the exact sum of edit distances to every other
vocabulary word, plus the medoid flag (min total, lexicographic
ties).  The engine computes the full pairwise matrix with the
classic two-row DP; the oracle leans on DuckDB's native
``levenshtein`` — an entirely independent implementation of the
metric.  Metric axioms (symmetry, identity, triangle spot checks)
are pytest-pinned on the engine matrix.

``anchor_pair_lcs`` — the longest common subsequence, at WORD level,
between the two smallest-doc_id documents (the alignment primitive
of near-dup diffing): emitted as one row (len_a, len_b, n_matches,
lcs_len).  The engine runs the textbook O(len_a·len_b) DP; the
oracle uses the chain characterization — the LCS is the longest
strictly-increasing-in-both-coordinates chain of match pairs
(a_i = b_j) — as a recursive chain-closure CTE (the lis_per_user
shape lifted to two dimensions).

Reference anchors: text-normalization + alignment families
(SURVEY.md §2.4); siblings: edit_distance_dups (banded Levenshtein at
corpus scale), vocab_set_cover / vocab_borders (bounded vocabulary
folds), lis_per_user (chain-closure oracles).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# vocab_edit_medoid
# --------------------------------------------------------------------------


def _lev(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def q_vocab_edit_medoid(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def words(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        return pa.table({
            "w": toks,
            "one": pa.array(np.ones(len(toks), dtype=np.int64)),
        })

    vocab = sorted(grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]).map_batches(
            words, batch_format="pyarrow", zero_copy_batch=True),
        ["w"], [("count", None, "cnt")],
    ).to_pandas()["w"].tolist())  # bounded vocabulary
    n = len(vocab)
    totals = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            d = _lev(vocab[i], vocab[j])
            totals[i] += d
            totals[j] += d
    best = min(range(n), key=lambda i: (totals[i], vocab[i]))
    return ray.data.from_arrow(pa.table({
        "w": pa.array(vocab, type=pa.string()),
        "total_dist": pa.array(totals, type=pa.int64()),
        "is_medoid": pa.array(
            [int(i == best) for i in range(n)], type=pa.int64()),
    }))


SQL_VOCAB_EDIT_MEDOID = """
WITH vocab AS MATERIALIZED (
  SELECT DISTINCT UNNEST(string_split(text, ' ')) AS w FROM documents
), tot AS MATERIALIZED (
  SELECT a.w, CAST(SUM(levenshtein(a.w, b.w)) AS BIGINT) AS total_dist
  FROM vocab a JOIN vocab b ON a.w <> b.w
  GROUP BY 1
)
SELECT w, total_dist,
       CAST(CASE WHEN ROW_NUMBER() OVER (ORDER BY total_dist, w) = 1
            THEN 1 ELSE 0 END AS BIGINT) AS is_medoid
FROM tot
"""


# --------------------------------------------------------------------------
# anchor_pair_lcs
# --------------------------------------------------------------------------


def q_anchor_pair_lcs(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def pick(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        order = np.argsort(d, kind="stable")[:2]
        packed = [f"{int(d[i]):020d}|" + str(
            batch.column("text")[int(i)].as_py()) for i in order]
        packed += [""] * (2 - len(packed))
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "p1": pa.array([packed[0]], type=pa.string()),
            "p2": pa.array([packed[1]], type=pa.string()),
        })

    def combine(batch: pa.Table) -> pa.Table:
        cand = [x for x in
                batch.column("p1").to_pylist()
                + batch.column("p2").to_pylist() if x]
        cand = sorted(set(cand))[:2]
        cand += [""] * (2 - len(cand))
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "p1": pa.array([cand[0]], type=pa.string()),
            "p2": pa.array([cand[1]], type=pa.string()),
        })

    # per-block top-2 partials -> driver takes the two smallest of the
    # union (a columnwise min of (p1, p2) would pair the global minimum
    # with the wrong second element)
    partials = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"]).map_batches(
        pick, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        combine, batch_format="pyarrow",
        zero_copy_batch=True).to_pandas()
    cands = sorted(x for x in
                   partials["p1"].tolist() + partials["p2"].tolist()
                   if x)[:2]
    a = cands[0].split("|", 1)[1].split(" ")
    b = cands[1].split("|", 1)[1].split(" ")
    la, lb = len(a), len(b)
    dp = np.zeros((la + 1, lb + 1), dtype=np.int64)
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            if a[i - 1] == b[j - 1]:
                dp[i, j] = dp[i - 1, j - 1] + 1
            else:
                dp[i, j] = max(dp[i - 1, j], dp[i, j - 1])
    n_matches = sum(1 for i in range(la) for j in range(lb)
                    if a[i] == b[j])
    return ray.data.from_arrow(pa.table({
        "len_a": pa.array([la], type=pa.int64()),
        "len_b": pa.array([lb], type=pa.int64()),
        "n_matches": pa.array([n_matches], type=pa.int64()),
        "lcs_len": pa.array([int(dp[la, lb])], type=pa.int64()),
    }))


SQL_ANCHOR_PAIR_LCS = """
WITH RECURSIVE two AS MATERIALIZED (
  SELECT doc_id, string_split(text, ' ') AS l,
         ROW_NUMBER() OVER (ORDER BY doc_id) AS r
  FROM documents QUALIFY r <= 2
), wa AS MATERIALIZED (
  SELECT r.range AS i, t.l[r.range] AS w
  FROM two t JOIN range(1, 256) r ON r.range <= len(t.l)
  WHERE t.r = 1
), wb AS MATERIALIZED (
  SELECT r.range AS j, t.l[r.range] AS w
  FROM two t JOIN range(1, 256) r ON r.range <= len(t.l)
  WHERE t.r = 2
), matches AS MATERIALIZED (
  SELECT a.i, b.j FROM wa a JOIN wb b ON a.w = b.w
), chain AS (
  SELECT i, j, 1 AS l FROM matches
  UNION
  SELECT m.i, m.j, c.l + 1
  FROM chain c JOIN matches m ON m.i > c.i AND m.j > c.j
)
SELECT (SELECT CAST(MAX(i) AS BIGINT) FROM wa) AS len_a,
       (SELECT CAST(MAX(j) AS BIGINT) FROM wb) AS len_b,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM matches) AS n_matches,
       CAST(COALESCE((SELECT MAX(l) FROM chain), 0) AS BIGINT) AS lcs_len
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext191():
    return {
        "vocab_edit_medoid": q_vocab_edit_medoid,
        "anchor_pair_lcs": q_anchor_pair_lcs,
    }


def build_oracles_ext191():
    return {
        "vocab_edit_medoid": SQL_VOCAB_EDIT_MEDOID,
        "anchor_pair_lcs": SQL_ANCHOR_PAIR_LCS,
    }
