"""Round-3 extension operators, batch 189: LRU stack-distance histogram
+ first-fit-decreasing bin packing.

``lru_stack_distances`` — the reuse-distance profile that prices
EVERY cache size at once (Mattson et al.): over the part-access
stream of the fixed audit window (lineitems of orders with key <
6000, ordered by (orderkey, linenumber, partkey) — an absolute
window, so the sequential-by-nature diagnostic stays bounded at any
corpus scale; the partkey tiebreak pins the order through this
corpus' planted duplicate shipments, and full-triple duplicates
sort adjacent so the distance multiset is deterministic),
each re-access's stack distance is the number of DISTINCT other
parts touched since its previous access (first accesses report the
−1 sentinel); the bounded distance histogram is emitted.  LRU with
capacity C hits exactly the accesses with distance < C — pinned in
pytest against a direct OrderedDict LRU simulation at three
capacities.  Engine: the classic O(n log n) algorithm — a Fenwick
tree over positions marking each part's LAST access, queried on the
(prev, now) window.  Oracle: the first-occurrence-in-window
identity — r counts for access a iff prev(r) ≤ prev(a) < pos(r) <
pos(a) — as one non-correlated range join.

``ffd_bin_packing`` — first-fit-decreasing over the FFD_JOBS most
expensive parts with capacity 4× the largest item: each item (desc
cents, key ties) goes to the FIRST bin it fits.  Engine: the real
list-walk FFD (asserting the 12-bin budget suffices).  Oracle: the
decision sequence unrolled as chained single-row state CTEs with a
first-fit CASE cascade (the lpt_schedule pattern with a different
decision rule and objective).  The ≤ (11/9)·OPT + 1 flavor bound is
sanity-checked against the volume lower bound.

Reference anchors: systems-simulation + packing families (SURVEY.md
§2.4); siblings: fenwick_nodes / label_dominance_counts (the BIT as
machinery), lpt_schedule (unrolled greedy state oracle),
roaring_cost_estimate (cache/size estimation).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

LRU_MAX_OKEY = 6000
FFD_JOBS = 40
FFD_BINS = 12


# --------------------------------------------------------------------------
# lru_stack_distances
# --------------------------------------------------------------------------


def q_lru_stack_distances(sf_dir: str):
    import ray

    def prep(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        m = okey < LRU_MAX_OKEY
        return pa.table({
            "okey": pa.array(okey[m], type=pa.int64()),
            "line": pc.cast(batch.column("l_linenumber"),
                            pa.int64()).filter(pa.array(m)),
            "pkey": batch.column("l_partkey").filter(pa.array(m)),
        })

    # bounded audit window -> ordered driver stream
    stream = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey"],
    ).map_batches(prep, batch_format="pyarrow",
                  zero_copy_batch=True).to_pandas()
    stream = stream.sort_values(["okey", "line", "pkey"]).reset_index(drop=True)
    keys = stream["pkey"].to_numpy().astype(np.int64)
    n = len(keys)
    # Fenwick over positions 1..n marking each key's LAST access
    fen = np.zeros(n + 1, dtype=np.int64)

    def add(i: int, v: int):
        while i <= n:
            fen[i] += v
            i += i & -i

    def psum(i: int) -> int:
        s = 0
        while i > 0:
            s += int(fen[i])
            i -= i & -i
        return s

    last: dict[int, int] = {}
    hist: dict[int, int] = {}
    for p in range(1, n + 1):
        k = int(keys[p - 1])
        q = last.get(k)
        if q is None:
            sd = -1
        else:
            sd = psum(p - 1) - psum(q)  # marks in (q, p-1]
            add(q, -1)
        add(p, 1)
        last[k] = p
        hist[sd] = hist.get(sd, 0) + 1
    dists = sorted(hist)
    return ray.data.from_arrow(pa.table({
        "stack_dist": pa.array(dists, type=pa.int64()),
        "n_accesses": pa.array([hist[d] for d in dists],
                               type=pa.int64()),
    }))


SQL_LRU_STACK_DISTANCES = f"""
WITH seq AS MATERIALIZED (
  SELECT l_partkey AS k,
         ROW_NUMBER() OVER (ORDER BY l_orderkey, l_linenumber,
                            l_partkey) AS p
  FROM lineitem WHERE l_orderkey < {LRU_MAX_OKEY}
), linked AS MATERIALIZED (
  SELECT k, p, LAG(p) OVER (PARTITION BY k ORDER BY p) AS q FROM seq
), sd AS (
  SELECT a.p,
         COUNT(r.p) AS d
  FROM linked a
  LEFT JOIN linked r
    ON a.q IS NOT NULL AND r.p > a.q AND r.p < a.p
   AND COALESCE(r.q, -1) <= a.q
  GROUP BY a.p, a.q
)
SELECT CAST(CASE WHEN l.q IS NULL THEN -1 ELSE s.d END AS BIGINT)
         AS stack_dist,
       CAST(COUNT(*) AS BIGINT) AS n_accesses
FROM linked l JOIN sd s ON s.p = l.p
GROUP BY 1
"""


# --------------------------------------------------------------------------
# ffd_bin_packing
# --------------------------------------------------------------------------


def q_ffd_bin_packing(sf_dir: str):
    from .queries_ext188 import _top_jobs

    import ray
    jobs_all = _top_jobs(sf_dir)  # desc cents, LPT_JOBS=60 of them
    jobs = jobs_all[:FFD_JOBS]
    cap = 4 * jobs[0]
    loads = [0] * FFD_BINS
    counts = [0] * FFD_BINS
    for c in jobs:
        for b in range(FFD_BINS):
            if loads[b] + c <= cap:
                loads[b] += c
                counts[b] += 1
                break
        else:
            raise AssertionError("FFD_BINS budget exceeded")
    return ray.data.from_arrow(pa.table({
        "bin": pa.array(np.arange(FFD_BINS, dtype=np.int64)),
        "n_items": pa.array(counts, type=pa.int64()),
        "load_cents": pa.array(loads, type=pa.int64()),
        "capacity": pa.array([cap] * FFD_BINS, type=pa.int64()),
    }))


def _sql_ffd_bin_packing() -> str:
    B = FFD_BINS
    cols0 = ", ".join(f"0::BIGINT AS l{b}, 0::BIGINT AS n{b}"
                      for b in range(B))
    head = f"""
WITH jobs AS MATERIALIZED (
  SELECT CAST(ROUND(p_retailprice * 100) AS BIGINT) AS c,
         ROW_NUMBER() OVER (
           ORDER BY CAST(ROUND(p_retailprice * 100) AS BIGINT) DESC,
                    p_partkey) AS i
  FROM part QUALIFY i <= {FFD_JOBS}
), cap AS MATERIALIZED (
  SELECT 4 * MAX(c) AS cv FROM jobs
), s_0 AS MATERIALIZED (SELECT {cols0})"""
    parts = [head]
    for i in range(1, FFD_JOBS + 1):
        pick = "CASE " + " ".join(
            f"WHEN s.l{b} + j.c <= cp.cv THEN {b}" for b in range(B)
        ) + " END"
        updates = ", ".join(
            f"CASE WHEN ({pick}) = {b} THEN s.l{b} + j.c ELSE s.l{b} END"
            f" AS l{b}, "
            f"CASE WHEN ({pick}) = {b} THEN s.n{b} + 1 ELSE s.n{b} END"
            f" AS n{b}" for b in range(B))
        parts.append(f""",
s_{i} AS MATERIALIZED (
  SELECT {updates}
  FROM s_{i - 1} s, (SELECT c FROM jobs WHERE i = {i}) j, cap cp
)""")
    final = " UNION ALL ".join(
        f"SELECT {b} AS bin, n{b} AS n_items, l{b} AS load_cents "
        f"FROM s_{FFD_JOBS}" for b in range(B))
    parts.append(f"""
SELECT CAST(bin AS BIGINT) AS bin, CAST(n_items AS BIGINT) AS n_items,
       CAST(load_cents AS BIGINT) AS load_cents,
       (SELECT CAST(cv AS BIGINT) FROM cap) AS capacity
FROM ({final})""")
    return "".join(parts)


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext189():
    return {
        "lru_stack_distances": q_lru_stack_distances,
        "ffd_bin_packing": q_ffd_bin_packing,
    }


def build_oracles_ext189():
    return {
        "lru_stack_distances": SQL_LRU_STACK_DISTANCES,
        "ffd_bin_packing": _sql_ffd_bin_packing(),
    }
