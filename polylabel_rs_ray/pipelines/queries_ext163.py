"""Round-3 extension operators, batch 163: k-core bucket decomposition +
prefix autocomplete top-k.

``part_core_buckets`` — bucketed k-core decomposition of the part
co-purchase graph (the community-density primitive behind graph-based
corpus curation): for every node, the LARGEST K in the fixed ladder
(40, 50, 60, 70, 80) whose K-core still contains it (0 if none) —
K-core = the maximal subgraph of minimum degree ≥ K, computed by
iterated peeling, which converges to the same core from ANY superset
of it; that warm-start monotonicity (core_K ⊆ core_{K'} for K > K')
lets both engine and oracle seed each rung's peel from the previous
rung's fixpoint.  Distributed shape: the expensive part — the
lineitem scan + intra-order pair generation + global distinct-edge
aggregate — is the ``part_pair_counts`` pipeline (co-partitioned,
map-side-combined); the peel itself folds on the driver over the
BOUNDED distinct-edge table (≤ |parts|²/2 rows, a function of the
part-key domain, NOT of corpus row count — the same boundedness
argument as ``local_clustering_coeff``'s incident-edge pull), with
numpy ``bincount`` rounds.  The oracle replays the identical ladder
as one RECURSIVE CTE per rung (peel round = one degree-filter join
over the materialized pair list, the working table replacing itself
each round — O(|V|) peak state, sf1-safe); rounds per rung are bounded
by PEEL_ROUNDS and the fixpoint-reached invariant is pytest-pinned,
so the capped recursion depth is safe, not hopeful.

``autocomplete_topk`` — the search-box primitive: for every prefix
(lengths 1..4) of every vocabulary word, the TOPK=3 completions by
global corpus frequency (ties lexicographic).  Distributed shape: the
word-frequency table reduces through the map-side-combined groupby
(the corpus scan is the whole cost); the prefix fan-out and per-prefix
rank run on the BOUNDED vocabulary table driver-side (this corpus'
generator vocabulary; at an unbounded-vocab deployment the rank moves
into the established hash-partitioned top-k-per-group pattern of
``top_terms_per_lang``).  Oracle: LATERAL prefix expansion + QUALIFY
ROW_NUMBER — completions, ranks and frequencies all value-checked.

Reference anchors: graph + text-retrieval families (SURVEY.md §2.4);
siblings: local_clustering_coeff / part_bfs_hops (graph ops over the
same edge pipeline), top_terms_per_lang / heavy_hitter_words
(distributed term frequencies), vocab_set_cover (bounded-vocab fold).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CORE_LADDER = (40, 50, 60, 70, 80)
PEEL_ROUNDS = 10  # per rung; fixpoint-reached is pytest-pinned
PREFIX_MAX_LEN = 4
AUTOCOMPLETE_TOPK = 3


# --------------------------------------------------------------------------
# part_core_buckets
# --------------------------------------------------------------------------


def _peel_to_core(a: np.ndarray, b: np.ndarray, alive: np.ndarray,
                  k: int) -> tuple[np.ndarray, int]:
    """Iterated peeling of edge list (a, b) restricted to `alive` until
    min-degree >= k; returns (new alive mask, rounds used)."""
    rounds = 0
    size = len(alive)
    while True:
        keep = alive[a] & alive[b]
        deg = (np.bincount(a[keep], minlength=size)
               + np.bincount(b[keep], minlength=size))
        new = alive & (deg >= k)
        rounds += 1
        if np.array_equal(new, alive):
            return alive, rounds
        alive = new


def q_part_core_buckets(sf_dir: str):
    from .queries import q_part_pair_counts

    import ray
    # distributed edge build; the distinct-pair table is bounded by the
    # part-key domain (not corpus size) — driver fold is legitimate
    edges = q_part_pair_counts(sf_dir).select_columns(
        ["part_a", "part_b"]).to_pandas()
    a = edges["part_a"].to_numpy().astype(np.int64)
    b = edges["part_b"].to_numpy().astype(np.int64)
    hi = int(max(a.max(initial=0), b.max(initial=0))) + 1
    nodes = np.zeros(hi, dtype=bool)
    nodes[a] = True
    nodes[b] = True
    bucket = np.zeros(hi, dtype=np.int64)
    alive = nodes.copy()
    for k in CORE_LADDER:  # ascending; warm start from previous core
        alive, rounds = _peel_to_core(a, b, alive, k)
        assert rounds <= PEEL_ROUNDS, (k, rounds)
        bucket[alive] = k
        if not alive.any():
            break
    keys = np.flatnonzero(nodes).astype(np.int64)
    return ray.data.from_arrow(pa.table({
        "part_key": pa.array(keys, type=pa.int64()),
        "core_bucket": pa.array(bucket[keys], type=pa.int64()),
    }))


def _sql_part_core_buckets() -> str:
    """One RECURSIVE CTE per ladder rung, each seeded from the previous
    rung's fixpoint (the warm-start monotonicity the engine uses).  The
    recursive working table holds ONE round's alive set at a time — round
    r+1 is computed from round r and then replaces it — so peak state is
    O(|V|) per rung instead of the 50 chained MATERIALIZED round tables
    the unrolled ladder kept live (which spilled past the temp-disk cap
    at sf1; CORRECTNESS_FULL_r4_sf1.json).  ``x.r < PEEL_ROUNDS`` caps
    the recursion; a nonempty fixpoint keeps re-emitting itself up to
    r = PEEL_ROUNDS (peeling is idempotent at the fixpoint), while an
    empty fixpoint ends the recursion with no r = PEEL_ROUNDS rows —
    both cases make ``WHERE r = PEEL_ROUNDS`` exactly the rung's core."""
    parts = ["""
WITH RECURSIVE pairs AS MATERIALIZED (
  SELECT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
), ends AS MATERIALIZED (
  SELECT pa AS v, pb AS o FROM pairs
  UNION ALL
  SELECT pb AS v, pa AS o FROM pairs
), s_base AS (SELECT DISTINCT v FROM ends)"""]
    prev_seed = "SELECT 0, v FROM s_base"
    for k in CORE_LADDER:
        parts.append(f""",
rung_{k}(r, v) AS (
  {prev_seed}
  UNION ALL
  SELECT x.r + 1, e.v
  FROM ends e
  JOIN rung_{k} x ON x.v = e.v
  JOIN rung_{k} y ON y.v = e.o
  WHERE x.r < {PEEL_ROUNDS}
  GROUP BY 1, 2 HAVING COUNT(*) >= {k}
)""")
        prev_seed = f"SELECT 0, v FROM rung_{k} WHERE r = {PEEL_ROUNDS}"
    cases = " ".join(
        f"WHEN n.v IN (SELECT v FROM rung_{k} WHERE r = {PEEL_ROUNDS})"
        f" THEN {k}"
        for k in reversed(CORE_LADDER))
    parts.append(f"""
SELECT n.v AS part_key,
       CAST(CASE {cases} ELSE 0 END AS BIGINT) AS core_bucket
FROM s_base n""")
    return "".join(parts)


# --------------------------------------------------------------------------
# autocomplete_topk
# --------------------------------------------------------------------------


def q_autocomplete_topk(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def words(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern(batch.column("text"), " "))
        return pa.table({
            "w": toks,
            "one": pa.array(np.ones(len(toks), dtype=np.int64)),
        })

    freq = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]).map_batches(
            words, batch_format="pyarrow", zero_copy_batch=True),
        ["w"], [("sum", "one", "freq")],
    ).to_pandas()  # bounded: generator vocabulary

    ws = freq["w"].to_numpy(dtype=object)
    fs = freq["freq"].to_numpy().astype(np.int64)
    rows_prefix, rows_word, rows_freq = [], [], []
    for w, f in zip(ws, fs):
        for plen in range(1, min(PREFIX_MAX_LEN, len(w)) + 1):
            rows_prefix.append(w[:plen])
            rows_word.append(w)
            rows_freq.append(int(f))
    import pandas as pd

    t = pd.DataFrame({"prefix": rows_prefix, "word": rows_word,
                      "freq": rows_freq})
    t = t.sort_values(["prefix", "freq", "word"],
                      ascending=[True, False, True])
    t["rank"] = t.groupby("prefix").cumcount() + 1
    t = t[t["rank"] <= AUTOCOMPLETE_TOPK]
    return ray.data.from_arrow(pa.table({
        "prefix": pa.array(t["prefix"].tolist(), type=pa.string()),
        "rank": pa.array(t["rank"].to_numpy().astype(np.int64)),
        "word": pa.array(t["word"].tolist(), type=pa.string()),
        "freq": pa.array(t["freq"].to_numpy().astype(np.int64)),
    }))


SQL_AUTOCOMPLETE_TOPK = f"""
WITH freq AS MATERIALIZED (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS freq
  FROM (SELECT UNNEST(string_split(text, ' ')) AS w FROM documents)
  GROUP BY 1
), pref AS (
  SELECT substr(f.w, 1, t.range) AS prefix, f.w AS word, f.freq
  FROM freq f JOIN range(1, {PREFIX_MAX_LEN} + 1) t
    ON t.range <= length(f.w)
)
SELECT prefix,
       CAST(ROW_NUMBER() OVER (PARTITION BY prefix
                               ORDER BY freq DESC, word) AS BIGINT) AS rank,
       word, freq
FROM pref
QUALIFY rank <= {AUTOCOMPLETE_TOPK}
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext163():
    return {
        "part_core_buckets": q_part_core_buckets,
        "autocomplete_topk": q_autocomplete_topk,
    }


def build_oracles_ext163():
    return {
        "part_core_buckets": _sql_part_core_buckets(),
        "autocomplete_topk": SQL_AUTOCOMPLETE_TOPK,
    }
