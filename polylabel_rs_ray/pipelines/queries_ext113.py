"""Round-3 extension operators, batch 113: SCD Type-2 history build +
Theil-Sen robust slope.

``scd2_intervals`` — slowly-changing-dimension (Type 2) history derived
from the event stream: per user, consecutive same-type runs collapse to
validity intervals ``[valid_from_us, valid_to_us)`` where ``valid_to``
is the start of the user's NEXT run (−1 sentinel for the open current
row — the classic SCD2 "is-current" marker, kept as an integer so the
driver compare never sees NULL).  Distributed shape: one user-hash
exchange (users are partition-confined), one per-partition lexsort;
the LEAD() the SQL formulation needs is a shifted-slice within the
partition — no second shuffle, no window exchange.

``theilsen_part_slope`` — Theil-Sen robust regression slope of line
price (cents) on quantity per part: the median of all pairwise slopes
``(c_j − c_i) / (q_j − q_i)`` over unequal-quantity pairs.  Every
slope is ONE exact-operand IEEE division (int64 cents / int64 qty,
both < 2^53 → the double is fully determined), and the median is the
DISCRETE quantile ``sorted[(n−1)//2]`` — DuckDB's ``quantile_disc``
rule, probed empirically — so no float summation order exists anywhere
and the oracle matches bit-for-bit.  Pairs are generated INSIDE each
part segment after a part-hash exchange; per-part line counts are
bounded by order fan-in (they do not grow with corpus size), so pair
work is O(rows · lines_per_part), not O(rows²).

Reference anchors: event-stream sequence surface + relational
robust-statistics family (SURVEY.md §2.3/§2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


# --------------------------------------------------------------------------
# scd2_intervals
# --------------------------------------------------------------------------


def q_scd2_intervals(sf_dir: str, n_parts: int | None = None):
    from .queries_ext3 import _user_sorted_stream

    def intervals(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        n = len(uid)
        if n == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "event_type": pa.array([], type=pa.string()),
                "valid_from_us": pa.array([], type=pa.int64()),
                "valid_to_us": pa.array([], type=pa.int64()),
                "run_events": pa.array([], type=pa.int64()),
            })
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        et = group.column("event_type")
        et = et.combine_chunks() if isinstance(et, pa.ChunkedArray) else et
        et = et.take(pa.array(order))
        same_type = pc.equal(et.slice(1), et.slice(0, n - 1)).to_numpy(
            zero_copy_only=False)
        new_run = np.r_[True, (uid[1:] != uid[:-1]) | ~same_type]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.r_[starts, n])
        r_uid = uid[starts]
        r_from = ts[starts]
        # LEAD(valid_from) within user: next run's start, −1 sentinel
        # when the next run belongs to a different user (or none).
        nxt = np.r_[r_from[1:], np.int64(-1)]
        nxt_uid = np.r_[r_uid[1:], np.int64(-1)]
        r_to = np.where(nxt_uid == r_uid, nxt, np.int64(-1))
        return pa.table({
            "user_id": pa.array(r_uid, type=pa.int64()),
            "event_type": et.take(pa.array(starts)),
            "valid_from_us": pa.array(r_from, type=pa.int64()),
            "valid_to_us": pa.array(r_to, type=pa.int64()),
            "run_events": pa.array(lens.astype(np.int64), type=pa.int64()),
        })

    return hash_exchange(_user_sorted_stream(sf_dir), "user_id", intervals, n_parts)


SQL_SCD2_INTERVALS = """
    WITH o AS (
        SELECT user_id, event_type, epoch_us(ts) AS ts_us,
               ROW_NUMBER() OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn,
               ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                  ORDER BY ts, event_id) AS rt
        FROM events
    ),
    isl AS (
        SELECT user_id, event_type, rn - rt AS grp,
               MIN(ts_us) AS valid_from_us,
               CAST(COUNT(*) AS BIGINT) AS run_events,
               MIN(rn) AS first_rn
        FROM o GROUP BY user_id, event_type, grp
    )
    SELECT user_id, event_type, valid_from_us,
           COALESCE(LEAD(valid_from_us) OVER (PARTITION BY user_id
                                              ORDER BY first_rn),
                    -1) AS valid_to_us,
           run_events
    FROM isl
"""


# --------------------------------------------------------------------------
# theilsen_part_slope
# --------------------------------------------------------------------------

_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    got = _TRIU_CACHE.get(n)
    if got is None:
        got = _TRIU_CACHE[n] = np.triu_indices(n, k=1)
    return got


def q_theilsen_part_slope(sf_dir: str, n_parts: int | None = None):
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_orderkey", "l_linenumber",
                 "l_quantity", "l_extendedprice"],
    )

    def keyed(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy().astype(np.int64)
        return pa.table({
            "pk": pa.array(pk, type=pa.int64()),
            "ok": batch.column("l_orderkey"),
            "ln": pc.cast(batch.column("l_linenumber"), pa.int64()),
            "q": pc.cast(batch.column("l_quantity"), pa.int64()),
            "c": pc.cast(pc.round(pc.multiply(
                batch.column("l_extendedprice"), 100.0)), pa.int64()),
        })

    def slopes(group: pa.Table) -> pa.Table:
        pk = group.column("pk").to_numpy().astype(np.int64)
        ok = group.column("ok").to_numpy().astype(np.int64)
        ln = group.column("ln").to_numpy().astype(np.int64)
        q = group.column("q").to_numpy().astype(np.int64)
        c = group.column("c").to_numpy().astype(np.int64)
        # (ok, ln) is NOT unique in the synthetic lineitem — extend the
        # pair orientation to (ok, ln, q, c) so both sides agree; rows
        # identical in all four can only pair with dx == 0 (excluded).
        order = np.lexsort((c, q, ln, ok, pk))
        pk, q, c = pk[order], q[order], c[order]
        bounds = np.r_[0, np.flatnonzero(pk[1:] != pk[:-1]) + 1, len(pk)]
        out_pk, out_n, out_slope = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            m = e - s
            if m < 2:
                continue
            i, j = _triu(m)
            dx = q[s:e][j] - q[s:e][i]
            keep = dx != 0
            if not keep.any():
                continue
            dy = (c[s:e][j] - c[s:e][i])[keep]
            sl = np.sort(dy.astype(np.float64) /
                         dx[keep].astype(np.float64))
            out_pk.append(pk[s])
            out_n.append(len(sl))
            out_slope.append(sl[(len(sl) - 1) // 2])  # quantile_disc rule
        return pa.table({
            "l_partkey": pa.array(out_pk, type=pa.int64()),
            "n_pairs": pa.array(out_n, type=pa.int64()),
            "ts_slope": pa.array(out_slope, type=pa.float64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "pk", slopes, n_parts,
    )


SQL_THEILSEN_PART_SLOPE = """
    WITH li AS (
        SELECT l_partkey, l_orderkey, l_linenumber,
               CAST(l_quantity AS BIGINT) AS q,
               CAST(ROUND(l_extendedprice*100) AS BIGINT) AS c
        FROM lineitem
    ),
    pairs AS (
        SELECT a.l_partkey,
               CAST(b.c - a.c AS DOUBLE) /
               CAST(b.q - a.q AS DOUBLE) AS slope
        FROM li a JOIN li b
          ON a.l_partkey = b.l_partkey
         AND ROW(a.l_orderkey, a.l_linenumber, a.q, a.c) <
             ROW(b.l_orderkey, b.l_linenumber, b.q, b.c)
        WHERE a.q <> b.q
    )
    SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS n_pairs,
           quantile_disc(slope, 0.5) AS ts_slope
    FROM pairs GROUP BY l_partkey
"""


def build_queries_ext113() -> dict:
    return {
        "scd2_intervals": q_scd2_intervals,
        "theilsen_part_slope": q_theilsen_part_slope,
    }


def build_oracles_ext113() -> dict:
    return {
        "scd2_intervals": SQL_SCD2_INTERVALS,
        "theilsen_part_slope": SQL_THEILSEN_PART_SLOPE,
    }
