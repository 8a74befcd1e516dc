"""Round-3 extension operators, batch 188: Lyndon factorization + LPT
scheduling replay.

``doc_lyndon_factors`` — the Chen-Fox-Lyndon factorization of the
corpus anchor document: the unique decomposition into a
lexicographically non-increasing sequence of Lyndon words.  The
engine runs Duval's linear-time algorithm; the oracle uses the
THEOREM that the factor start positions are exactly the prefix
minima of the suffix order (position i starts a factor iff the
suffix s[i:] is lexicographically smaller than every earlier
suffix) — a window cumulative-min over ranked suffixes, sharing
nothing with Duval's scan.  Uniqueness and the non-increasing factor
property are pytest-pinned.

``lpt_schedule`` — the Longest-Processing-Time greedy for minimum
makespan: the LPT_JOBS most expensive parts (by exact retail cents,
key ties), in descending order, each assigned to the least-loaded of
LPT_MACHINES machines (load ties to the smallest machine index);
emitted per machine: job count and exact total load.  The engine
runs the classic heap greedy; the oracle replays the decision
sequence as machine-generated chained CTEs whose single row carries
all machine loads as columns, each step a CASE on the argmin —
sequential state made SQL by unrolling.  The 4/3-approximation
bound against the trivial lower bounds (max job, ceil-average) is
pytest-checked.

Reference anchors: stringology + scheduling families (SURVEY.md
§2.4); siblings: doc_suffix_array / doc_bwt / vocab_borders (the
anchor-doc suite), activity_selection (greedy + replay oracle),
nation_quota_allocation (assignment shapes).
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa

LPT_JOBS = 60
LPT_MACHINES = 7


# --------------------------------------------------------------------------
# doc_lyndon_factors
# --------------------------------------------------------------------------


def _duval(s: str) -> list[tuple[int, int]]:
    """Duval's algorithm: [(start, length)] of the Lyndon factors."""
    out = []
    i, n = 0, len(s)
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            if s[k] < s[j]:
                k = i
            else:
                k += 1
            j += 1
        while i <= k:
            out.append((i, j - k))
            i += j - k
    return out


def q_doc_lyndon_factors(sf_dir: str):
    from .queries_ext183 import _anchor_text

    import ray
    s = _anchor_text(sf_dir)
    factors = _duval(s)
    return ray.data.from_arrow(pa.table({
        "start_pos": pa.array([f[0] for f in factors], type=pa.int64()),
        "factor_len": pa.array([f[1] for f in factors], type=pa.int64()),
        "factor": pa.array([s[a:a + b] for a, b in factors],
                           type=pa.string()),
    }))


SQL_DOC_LYNDON_FACTORS = """
WITH anchor AS MATERIALIZED (
  SELECT text AS s, length(text) AS L FROM documents
  WHERE doc_id = (SELECT MIN(doc_id) FROM documents)
), sfx AS MATERIALIZED (
  SELECT r.range AS pos, substr(a.s, r.range + 1) AS suf, a.s, a.L
  FROM anchor a JOIN range(0, 8192) r ON r.range < a.L
), ranked AS MATERIALIZED (
  SELECT pos, s, L,
         ROW_NUMBER() OVER (ORDER BY suf) AS rk
  FROM sfx
), starts AS MATERIALIZED (
  -- factor starts = strict prefix minima of the suffix order
  SELECT pos, s, L FROM (
    SELECT pos, s, L, rk,
           MIN(rk) OVER (ORDER BY pos
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING) AS prev_min
    FROM ranked)
  WHERE prev_min IS NULL OR rk < prev_min
)
SELECT CAST(a.pos AS BIGINT) AS start_pos,
       CAST(COALESCE(MIN(b.pos), a.L) - a.pos AS BIGINT) AS factor_len,
       substr(a.s, a.pos + 1,
              CAST(COALESCE(MIN(b.pos), a.L) - a.pos AS BIGINT))
         AS factor
FROM starts a LEFT JOIN starts b ON b.pos > a.pos
GROUP BY a.pos, a.s, a.L
"""


# --------------------------------------------------------------------------
# lpt_schedule
# --------------------------------------------------------------------------


def _top_jobs(sf_dir: str) -> list[int]:
    """LPT_JOBS largest part retail cents, desc, partkey ties —
    distributed packed top-k (ext175 pattern)."""
    import numpy as np

    from .agg import grouped_aggregate  # noqa: F401

    import ray
    MAXC = np.int64(1) << 41

    def prep(batch: pa.Table) -> pa.Table:
        pk = batch.column("p_partkey").to_numpy().astype(np.int64)
        cents = np.round(
            batch.column("p_retailprice").to_numpy() * 100.0
        ).astype(np.int64)
        key = (MAXC - cents) * (np.int64(1) << 21) + pk
        top = np.sort(key)[:LPT_JOBS]
        return pa.table({"key": pa.array(top, type=pa.int64())})

    def combine(batch: pa.Table) -> pa.Table:
        key = np.sort(batch.column("key").to_numpy())[:LPT_JOBS]
        return pa.table({"key": pa.array(key, type=pa.int64())})

    tops = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_retailprice"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True
                  ).map_batches(combine, batch_format="pyarrow",
                                zero_copy_batch=True).to_pandas()
    keys = np.sort(tops["key"].to_numpy().astype(np.int64))[:LPT_JOBS]
    cents = (MAXC - (keys >> 21)).astype(np.int64)
    return [int(c) for c in cents]  # descending by construction


def q_lpt_schedule(sf_dir: str):
    import ray
    jobs = _top_jobs(sf_dir)
    heap = [(0, m) for m in range(LPT_MACHINES)]
    heapq.heapify(heap)
    loads = [0] * LPT_MACHINES
    counts = [0] * LPT_MACHINES
    for c in jobs:
        load, m = heapq.heappop(heap)
        loads[m] += c
        counts[m] += 1
        heapq.heappush(heap, (loads[m], m))
    return ray.data.from_arrow(pa.table({
        "machine": pa.array(np.arange(LPT_MACHINES, dtype=np.int64)),
        "n_jobs": pa.array(counts, type=pa.int64()),
        "load_cents": pa.array(loads, type=pa.int64()),
    }))


def _sql_lpt_schedule() -> str:
    M = LPT_MACHINES
    cols0 = ", ".join(
        f"0::BIGINT AS l{m}, 0::BIGINT AS n{m}" for m in range(M))
    head = f"""
WITH jobs AS MATERIALIZED (
  SELECT CAST(ROUND(p_retailprice * 100) AS BIGINT) AS c,
         ROW_NUMBER() OVER (
           ORDER BY CAST(ROUND(p_retailprice * 100) AS BIGINT) DESC,
                    p_partkey) AS i
  FROM part QUALIFY i <= {LPT_JOBS}
), s_0 AS MATERIALIZED (SELECT {cols0})"""
    parts = [head]
    for i in range(1, LPT_JOBS + 1):
        # argmin load, ties to smallest machine index
        least = "LEAST(" + ", ".join(f"s.l{m}" for m in range(M)) + ")"
        pick = "CASE " + " ".join(
            f"WHEN s.l{m} = {least} THEN {m}" for m in range(M)) + " END"
        updates = ", ".join(
            f"CASE WHEN ({pick}) = {m} THEN s.l{m} + j.c ELSE s.l{m} END"
            f" AS l{m}, "
            f"CASE WHEN ({pick}) = {m} THEN s.n{m} + 1 ELSE s.n{m} END"
            f" AS n{m}" for m in range(M))
        parts.append(f""",
s_{i} AS MATERIALIZED (
  SELECT {updates}
  FROM s_{i - 1} s, (SELECT c FROM jobs WHERE i = {i}) j
)""")
    final = " UNION ALL ".join(
        f"SELECT {m} AS machine, n{m} AS n_jobs, l{m} AS load_cents "
        f"FROM s_{LPT_JOBS}" for m in range(M))
    parts.append(f"""
SELECT CAST(machine AS BIGINT) AS machine,
       CAST(n_jobs AS BIGINT) AS n_jobs,
       CAST(load_cents AS BIGINT) AS load_cents
FROM ({final})""")
    return "".join(parts)


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext188():
    return {
        "doc_lyndon_factors": q_doc_lyndon_factors,
        "lpt_schedule": q_lpt_schedule,
    }


def build_oracles_ext188():
    return {
        "doc_lyndon_factors": SQL_DOC_LYNDON_FACTORS,
        "lpt_schedule": _sql_lpt_schedule(),
    }
