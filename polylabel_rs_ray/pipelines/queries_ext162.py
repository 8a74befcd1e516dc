"""Round-3 extension operators, batch 162: balance-dominance theta-join
counts + guarded sequence matching.

``balance_dominance_counts`` — the order-statistics answer to an
inequality (theta) join: per nation, how many (customer, supplier)
pairs have ``c_acctbal > s_acctbal`` (and how many are exactly equal,
in cents).  The oracle must enumerate the |C|x|S| pairs; the engine
never does — both sides co-partition on the nation key through ONE
union exchange, and inside each partition the supplier cents are
sorted once so every customer resolves with a binary search
(``searchsorted`` left/right bounds give the strict-dominance and the
tie counts simultaneously): O((|C|+|S|)·log|S|) per nation versus the
quadratic pair walk.  Balances are exact integer cents (the corpus is
2-decimal, asserted by the round-trip in tests).  The nation domain is
bounded (25), so group parallelism caps there — inherent to the key,
and each group's work is the log-factor path, not the pair count.

``guarded_sequence_match`` — sequence matching with a FORBIDDEN symbol
(the MATCH_RECOGNIZE shape ``signup (no error)* purchase`` that greedy
funnel chains cannot express): per user, a purchase QUALIFIES iff some
signup precedes it with no error in between, i.e. iff at that event
``last_signup_pos > last_error_pos`` over the (ts, event_id) order.
The engine runs ONE vectorized pass per hash partition — rows lexsort
to (user, ts, event_id); "last position of symbol k strictly before
me" is a plain ``np.maximum.accumulate`` over masked global indices
shifted by one, with per-user resets for free because global indices
are monotone across segment boundaries (a leaked maximum from the
previous user is < the current user's segment start and clamps out);
per-user outputs fold with ``reduceat`` on the segment offsets.  No
per-user Python loop, no per-user groups — many users per partition.
Emits (user_id, n_events, n_matches, first_match_rn; −1 sentinel).
The oracle replays with UNBOUNDED-PRECEDING window maxima.

Reference anchors: relational + sequence-analytics families
(SURVEY.md §2.4); siblings: funnel_pattern_match (deadline funnel,
per-step searchsorted), lis_per_user (per-user order statistic),
busday_ship_lag (the co-partitioned union join shape).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import hash_exchange


# --------------------------------------------------------------------------
# balance_dominance_counts
# --------------------------------------------------------------------------


def q_balance_dominance_counts(sf_dir: str):
    import ray

    def cust_side(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch.column("c_acctbal").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "nationkey": pc.cast(batch.column("c_nationkey"), pa.int64()),
            "is_supp": pa.array(np.zeros(len(cents), dtype=np.int8)),
            "cents": pa.array(cents, type=pa.int64()),
        })

    def supp_side(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch.column("s_acctbal").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "nationkey": pc.cast(batch.column("s_nationkey"), pa.int64()),
            "is_supp": pa.array(np.ones(len(cents), dtype=np.int8)),
            "cents": pa.array(cents, type=pa.int64()),
        })

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey", "c_acctbal"],
    ).map_batches(cust_side, batch_format="pyarrow", zero_copy_batch=True)
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"],
    ).map_batches(supp_side, batch_format="pyarrow", zero_copy_batch=True)

    def per_nation(group: pa.Table) -> pa.Table:
        nk = int(group.column("nationkey")[0].as_py())
        is_supp = group.column("is_supp").to_numpy().astype(bool)
        cents = group.column("cents").to_numpy().astype(np.int64)
        c = cents[~is_supp]
        s = np.sort(cents[is_supp], kind="stable")
        if len(c) == 0 or len(s) == 0:  # inner-join semantics
            return pa.table({
                "nationkey": pa.array([], type=pa.int64()),
                "n_customers": pa.array([], type=pa.int64()),
                "n_suppliers": pa.array([], type=pa.int64()),
                "pairs_gt": pa.array([], type=pa.int64()),
                "pairs_eq": pa.array([], type=pa.int64()),
            })
        lo = np.searchsorted(s, c, side="left")
        hi = np.searchsorted(s, c, side="right")
        return pa.table({
            "nationkey": pa.array([nk], type=pa.int64()),
            "n_customers": pa.array([len(c)], type=pa.int64()),
            "n_suppliers": pa.array([len(s)], type=pa.int64()),
            "pairs_gt": pa.array([int(lo.sum())], type=pa.int64()),
            "pairs_eq": pa.array([int((hi - lo).sum())], type=pa.int64()),
        })

    both = cust.union(supp)
    return group_map(both, "nationkey", per_nation)


SQL_BALANCE_DOMINANCE_COUNTS = """
SELECT c.c_nationkey AS nationkey,
       CAST(COUNT(DISTINCT c.rid) AS BIGINT) AS n_customers,
       CAST(COUNT(DISTINCT s.rid) AS BIGINT) AS n_suppliers,
       CAST(SUM(CASE WHEN c.cents > s.cents THEN 1 ELSE 0 END) AS BIGINT)
         AS pairs_gt,
       CAST(SUM(CASE WHEN c.cents = s.cents THEN 1 ELSE 0 END) AS BIGINT)
         AS pairs_eq
FROM (SELECT c_nationkey, c_custkey AS rid,
             CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
      FROM customer) c
JOIN (SELECT s_nationkey, s_suppkey AS rid,
             CAST(ROUND(s_acctbal * 100) AS BIGINT) AS cents
      FROM supplier) s
  ON s.s_nationkey = c.c_nationkey
GROUP BY 1
"""


# --------------------------------------------------------------------------
# guarded_sequence_match
# --------------------------------------------------------------------------

GUARD_START = "signup"
GUARD_FORBID = "error"
GUARD_TARGET = "purchase"


def q_guarded_sequence_match(sf_dir: str, n_parts: int | None = None):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def per_part(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, et = uid[order], et[order]
        n = len(uid)
        # segment starts per user (uid sorted)
        seg_mask = np.empty(n, dtype=bool)
        seg_mask[0] = True
        np.not_equal(uid[1:], uid[:-1], out=seg_mask[1:])
        seg_start_idx = np.flatnonzero(seg_mask)
        seg_start = np.repeat(seg_start_idx,
                              np.diff(np.append(seg_start_idx, n)))
        idx = np.arange(n, dtype=np.int64)

        def last_before(symbol: str) -> np.ndarray:
            # position of the last `symbol` strictly before each row, -1 if
            # none IN THIS USER: global max-accumulate + shift; cross-user
            # leakage clamps out because any leaked index < seg_start.
            pos = np.where(et == symbol, idx, -1)
            run = np.maximum.accumulate(pos)
            shifted = np.empty(n, dtype=np.int64)
            shifted[0] = -1
            shifted[1:] = run[:-1]
            return np.where(shifted >= seg_start, shifted, -1)

        last_s = last_before(GUARD_START)
        last_e = last_before(GUARD_FORBID)
        qual = (et == GUARD_TARGET) & (last_s >= 0) & (last_s > last_e)

        n_events = np.diff(np.append(seg_start_idx, n)).astype(np.int64)
        n_matches = np.add.reduceat(
            qual.astype(np.int64), seg_start_idx)
        # first qualifying rank (1-based within user), -1 when none
        rn = idx - seg_start + 1
        rn_or_big = np.where(qual, rn, np.int64(1) << 62)
        first_rn = np.minimum.reduceat(rn_or_big, seg_start_idx)
        first_rn = np.where(n_matches > 0, first_rn, -1)
        return pa.table({
            "user_id": pa.array(uid[seg_start_idx], type=pa.int64()),
            "n_events": pa.array(n_events, type=pa.int64()),
            "n_matches": pa.array(n_matches, type=pa.int64()),
            "first_match_rn": pa.array(first_rn, type=pa.int64()),
        })

    return hash_exchange(ds, "user_id", per_part, n_parts)


SQL_GUARDED_SEQUENCE_MATCH = f"""
WITH seq AS MATERIALIZED (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
), g AS (
  SELECT user_id, rn, event_type,
         MAX(CASE WHEN event_type = '{GUARD_START}' THEN rn END)
           OVER w AS last_s,
         MAX(CASE WHEN event_type = '{GUARD_FORBID}' THEN rn END)
           OVER w AS last_e
  FROM seq
  WINDOW w AS (PARTITION BY user_id ORDER BY rn
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
), q AS (
  SELECT user_id, rn FROM g
  WHERE event_type = '{GUARD_TARGET}' AND last_s IS NOT NULL
    AND (last_e IS NULL OR last_s > last_e)
)
SELECT n.user_id,
       CAST(n.n_events AS BIGINT) AS n_events,
       CAST(COALESCE(m.n_matches, 0) AS BIGINT) AS n_matches,
       CAST(COALESCE(m.first_match_rn, -1) AS BIGINT) AS first_match_rn
FROM (SELECT user_id, COUNT(*) AS n_events FROM seq GROUP BY 1) n
LEFT JOIN (SELECT user_id, COUNT(*) AS n_matches, MIN(rn) AS first_match_rn
           FROM q GROUP BY 1) m USING (user_id)
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext162():
    return {
        "balance_dominance_counts": q_balance_dominance_counts,
        "guarded_sequence_match": q_guarded_sequence_match,
    }


def build_oracles_ext162():
    return {
        "balance_dominance_counts": SQL_BALANCE_DOMINANCE_COUNTS,
        "guarded_sequence_match": SQL_GUARDED_SEQUENCE_MATCH,
    }
