"""Round-3 extension operators, batch 181: Aho-Corasick failure links +
Fenwick tree node array.

``aho_corasick_links`` — the multi-pattern automaton over the corpus
vocabulary, pinned structurally: every trie node (every distinct
prefix of every vocabulary word) with its depth, word flag, and
FAILURE link.  The two sides meet at the theorem that defines the
automaton: the engine builds the links operationally (the classic
BFS over the trie, each node's link found by walking the parent's
failure chain), while the oracle uses the DEFINITION — fail(u) is
the longest proper suffix of u that is itself a node — as a direct
suffix join with an argmax-length pick.  Construction vs
specification, value-equal.  Distributed shape: the vocabulary
reduce is the corpus-scan cost; the bounded trie (Σ word lengths)
folds on the driver.

``fenwick_nodes`` — the Fenwick (binary indexed) tree over the daily
order-count series, node by node: day ranks 1..D, node i stores the
sum of counts over the half-open rank window (i − lowbit(i), i].
The engine runs the O(D) sibling-propagation build (fen[i] += c[i];
fen[i + lowbit(i)] += fen[i]); the oracle evaluates the definition
as a windowed range-sum join with ``i & (−i)`` bit arithmetic in
SQL.  The query-path identity (prefix sums via the parent chain)
is pytest-pinned for every rank.

Reference anchors: text-automaton + DB-internals families (SURVEY.md
§2.4); siblings: phrase_screen_counts (multi-pattern matching),
vocab_front_coding / vocab_ids (prefix machinery), dod_encoding_cost
(bit-arithmetic replays), ivm_daily_revenue (daily series).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# aho_corasick_links
# --------------------------------------------------------------------------


def q_aho_corasick_links(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def words(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        return pa.table({
            "w": toks,
            "one": pa.array(np.ones(len(toks), dtype=np.int64)),
        })

    vocab = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]).map_batches(
            words, batch_format="pyarrow", zero_copy_batch=True),
        ["w"], [("count", None, "cnt")],
    ).to_pandas()["w"].tolist()  # bounded vocabulary

    # trie: node = prefix string; children maps; BFS failure links
    words_set = set(vocab)
    children: dict[str, dict[str, str]] = {"": {}}
    for w in vocab:
        for i in range(1, len(w) + 1):
            p, q = w[:i - 1], w[:i]
            children.setdefault(p, {})[w[i - 1]] = q
            children.setdefault(q, {})
    fail = {"": ""}
    dq = deque()
    for ch, q in children[""].items():
        fail[q] = ""
        dq.append(q)
    while dq:
        u = dq.popleft()
        for ch, q in children[u].items():
            f = fail[u]
            while f != "" and ch not in children[f]:
                f = fail[f]
            fail[q] = children[f][ch] if ch in children[f] and \
                children[f][ch] != q else ""
            dq.append(q)
    nodes = sorted(p for p in children if p)
    return ray.data.from_arrow(pa.table({
        "prefix": pa.array(nodes, type=pa.string()),
        "depth": pa.array([len(p) for p in nodes], type=pa.int64()),
        "is_word": pa.array([int(p in words_set) for p in nodes],
                            type=pa.int64()),
        "fail_prefix": pa.array([fail[p] for p in nodes],
                                type=pa.string()),
    }))


SQL_AHO_CORASICK_LINKS = """
WITH vocab AS MATERIALIZED (
  SELECT DISTINCT UNNEST(string_split(text, ' ')) AS w FROM documents
), nodes AS MATERIALIZED (
  SELECT DISTINCT substr(v.w, 1, r.range) AS p
  FROM vocab v JOIN range(1, 256) r ON r.range <= length(v.w)
), fails AS (
  SELECT n.p,
         COALESCE((
           SELECT m.p FROM nodes m
           WHERE length(m.p) < length(n.p)
             AND substr(n.p, length(n.p) - length(m.p) + 1) = m.p
           ORDER BY length(m.p) DESC LIMIT 1), '') AS fail_prefix
  FROM nodes n
)
SELECT n.p AS prefix,
       CAST(length(n.p) AS BIGINT) AS depth,
       CAST(CASE WHEN EXISTS (SELECT 1 FROM vocab v WHERE v.w = n.p)
            THEN 1 ELSE 0 END AS BIGINT) AS is_word,
       f.fail_prefix
FROM nodes n JOIN fails f ON f.p = n.p
"""


# --------------------------------------------------------------------------
# fenwick_nodes
# --------------------------------------------------------------------------


def q_fenwick_nodes(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "one": pa.array(np.ones(len(day), dtype=np.int64)),
        })

    daily = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderdate"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "one", "n")],
    ).to_pandas().sort_values("day").reset_index(drop=True)
    c = daily["n"].to_numpy().astype(np.int64)
    day = daily["day"].to_numpy().astype(np.int64)
    D = len(c)
    # classic O(D) sibling-propagation build
    fen = np.zeros(D + 1, dtype=np.int64)
    for i in range(1, D + 1):
        fen[i] += c[i - 1]
        p = i + (i & -i)
        if p <= D:
            fen[p] += fen[i]
    return ray.data.from_arrow(pa.table({
        "idx": pa.array(np.arange(1, D + 1), type=pa.int64()),
        "day": pa.array(day, type=pa.int64()),
        "node_sum": pa.array(fen[1:], type=pa.int64()),
    }))


SQL_FENWICK_NODES = """
WITH daily AS MATERIALIZED (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT)
           AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM orders GROUP BY 1
), ranked AS MATERIALIZED (
  SELECT day, n,
         CAST(ROW_NUMBER() OVER (ORDER BY day) AS BIGINT) AS idx
  FROM daily
)
SELECT r.idx, r.day,
       CAST((SELECT SUM(s.n) FROM ranked s
             WHERE s.idx > r.idx - (r.idx & (-r.idx))
               AND s.idx <= r.idx) AS BIGINT) AS node_sum
FROM ranked r
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext181():
    return {
        "aho_corasick_links": q_aho_corasick_links,
        "fenwick_nodes": q_fenwick_nodes,
    }


def build_oracles_ext181():
    return {
        "aho_corasick_links": SQL_AHO_CORASICK_LINKS,
        "fenwick_nodes": SQL_FENWICK_NODES,
    }
