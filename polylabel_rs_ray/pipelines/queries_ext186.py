"""Round-3 extension operators, batch 186: 2-D dominance counts +
vocabulary border/period table.

``label_dominance_counts`` — the planar dominance-counting problem
(the building block of 2-D skylines, ECDFs and Ripley-style
statistics): for every DISTINCT l_shape offset point (dx, dy) — the
generator's bounded offset cycle — the number of distinct points
STRICTLY dominated (x' < x AND y' < y).  The engine runs the classic
offline sweep: sort by x, walk in order, count with a Fenwick tree
over the y domain (the ext181 structure, now used as an algorithm's
engine rather than an artifact) — O(n log n), no pair materialized.
The oracle counts pairs directly with a quadratic dominance join over
the bounded distinct set.  Distributed shape: the distinct-offset
reduce is the corpus-scan cost.

``vocab_borders`` — the KMP fundamental table over the corpus
vocabulary: per word, the longest proper border (prefix = suffix)
and the smallest period ``len − border`` (the string's fundamental
repetition unit).  Engine: the KMP prefix-function recurrence per
word (bounded vocabulary fold).  Oracle: the DEFINITION — the
longest k < len with ``substr(w,1,k) = substr(w,len−k+1)`` — as a
MAX-k probe, construction vs specification (the aho_corasick_links
pattern, one level deeper into stringology).

Reference anchors: computational-geometry + stringology families
(SURVEY.md §2.4); siblings: skyline_parts / pareto_point (dominance),
fenwick_nodes (the tree, reused as machinery), aho_corasick_links
(prefix automata), fingerprints.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DOM_FIXTURE_IDX = 0  # l_shape


# --------------------------------------------------------------------------
# label_dominance_counts
# --------------------------------------------------------------------------


def q_label_dominance_counts(sf_dir: str):
    from ..sources import docs as docs_mod
    from .agg import grouped_aggregate

    import ray
    NF = docs_mod.N_FIXTURES

    def offsets(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        d = d[d % NF == DOM_FIXTURE_IDX]
        return pa.table({
            "dx": pa.array((d * docs_mod.OFF_X_MULT) % docs_mod.OFF_MOD,
                           type=pa.int64()),
            "dy": pa.array((d * docs_mod.OFF_Y_MULT) % docs_mod.OFF_MOD,
                           type=pa.int64()),
        })

    pts = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
            offsets, batch_format="pyarrow", zero_copy_batch=True),
        ["dx", "dy"], [("count", None, "cnt")],
    ).to_pandas()  # bounded: the offset cycle
    x = pts["dx"].to_numpy().astype(np.int64)
    y = pts["dy"].to_numpy().astype(np.int64)
    n = len(x)
    # offline sweep: ascending x; equal-x points must NOT see each other
    # (strict dominance), so flush Fenwick inserts per x-group
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    ymax = int(y.max()) + 2
    fen = np.zeros(ymax + 1, dtype=np.int64)

    def fen_add(i: int):
        i += 1
        while i <= ymax:
            fen[i] += 1
            i += i & -i

    def fen_sum(i: int) -> int:  # count of inserted ys <= i
        i += 1
        s = 0
        while i > 0:
            s += int(fen[i])
            i -= i & -i
        return s

    dom = np.zeros(n, dtype=np.int64)
    i = 0
    while i < n:
        j = i
        while j < n and x[j] == x[i]:
            j += 1
        for k in range(i, j):  # query before inserting the x-group
            dom[k] = fen_sum(int(y[k]) - 1)
        for k in range(i, j):
            fen_add(int(y[k]))
        i = j
    return ray.data.from_arrow(pa.table({
        "dx": pa.array(x, type=pa.int64()),
        "dy": pa.array(y, type=pa.int64()),
        "n_dominated": pa.array(dom, type=pa.int64()),
    }))


def _sql_label_dominance_counts() -> str:
    from ..sources import docs as docs_mod

    NF = docs_mod.N_FIXTURES
    return f"""
WITH pts AS MATERIALIZED (
  SELECT DISTINCT (doc_id * {docs_mod.OFF_X_MULT}) % {docs_mod.OFF_MOD}
           AS dx,
         (doc_id * {docs_mod.OFF_Y_MULT}) % {docs_mod.OFF_MOD} AS dy
  FROM documents WHERE doc_id % {NF} = {DOM_FIXTURE_IDX}
)
SELECT a.dx, a.dy,
       CAST(COALESCE((
         SELECT COUNT(*) FROM pts b
         WHERE b.dx < a.dx AND b.dy < a.dy), 0) AS BIGINT) AS n_dominated
FROM pts a
"""


# --------------------------------------------------------------------------
# vocab_borders
# --------------------------------------------------------------------------


def q_vocab_borders(sf_dir: str):
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

    ws, borders, periods = [], [], []
    for w in sorted(vocab):
        L = len(w)
        pi = [0] * L  # KMP prefix function
        k = 0
        for i in range(1, L):
            while k > 0 and w[i] != w[k]:
                k = pi[k - 1]
            if w[i] == w[k]:
                k += 1
            pi[i] = k
        b = pi[-1] if L else 0
        ws.append(w)
        borders.append(b)
        periods.append(L - b)
    return ray.data.from_arrow(pa.table({
        "w": pa.array(ws, type=pa.string()),
        "border_len": pa.array(borders, type=pa.int64()),
        "period": pa.array(periods, type=pa.int64()),
    }))


SQL_VOCAB_BORDERS = """
WITH vocab AS MATERIALIZED (
  SELECT DISTINCT UNNEST(string_split(text, ' ')) AS w FROM documents
)
SELECT w,
       CAST(COALESCE((
         SELECT MAX(k.range) FROM range(1, 256) k
         WHERE k.range < length(w)
           AND substr(w, 1, k.range)
               = substr(w, length(w) - k.range + 1)
       ), 0) AS BIGINT) AS border_len,
       CAST(length(w) - COALESCE((
         SELECT MAX(k.range) FROM range(1, 256) k
         WHERE k.range < length(w)
           AND substr(w, 1, k.range)
               = substr(w, length(w) - k.range + 1)
       ), 0) AS BIGINT) AS period
FROM vocab
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext186():
    return {
        "label_dominance_counts": q_label_dominance_counts,
        "vocab_borders": q_vocab_borders,
    }


def build_oracles_ext186():
    return {
        "label_dominance_counts": _sql_label_dominance_counts(),
        "vocab_borders": SQL_VOCAB_BORDERS,
    }
