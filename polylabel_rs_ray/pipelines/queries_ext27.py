"""Round-3 extension operators, batch 27: interval overlap counting (the
range-join family — an operator Ray Data lacks natively, alongside the
as-of join in queries.py::q_asof_purchase_view).

``interval_overlap`` — per user session (gap-based, from the sessionize
operator), how many OTHER sessions overlap it in time: concurrency
analysis over interval data.  The pairwise range join ``b.start <= a.end
AND b.end >= a.start`` is collapsed to two binary searches using the
standard interval-stabbing identity

    #overlaps(i) = #(start_j <= end_i) - #(end_j < start_i)

(valid because {j: end_j < start_i} is a subset of {j: start_j <= end_i});
one user's own sessions never overlap each other (gap-based sessions are
disjoint by construction), so subtracting the self-match makes the count
exactly "sessions of other users".

Scale shape: the interval INDEX is two sorted int64 arrays (16 bytes per
session), shipped ONCE inside the stage function and searchsorted per
batch — the broadcast-small-side pattern.  When the session count itself
outgrows a worker (~10^9+), the same identity applies per TIME BUCKET
with boundary counts exchanged once; documented here as the scale path,
not built, since the index for even 10^8 sessions is 1.6 GB —
broadcastable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def q_interval_overlap(sf_dir: str):
    from .queries import q_sessionize

    sess = q_sessionize(sf_dir)

    # the broadcast interval index: two sorted int64 arrays.  Bounded by
    # the session count (per-user streams collapse ~events/sessions-fold),
    # the canonical small side of this range join.
    idx = sess.select_columns(["session_start_us", "session_end_us"]).to_pandas()
    starts_sorted = np.sort(idx["session_start_us"].to_numpy().astype(np.int64))
    ends_sorted = np.sort(idx["session_end_us"].to_numpy().astype(np.int64))

    def count_overlaps(batch: pa.Table) -> pa.Table:
        s = batch.column("session_start_us").to_numpy().astype(np.int64)
        e = batch.column("session_end_us").to_numpy().astype(np.int64)
        n_le = np.searchsorted(starts_sorted, e, side="right")
        n_lt = np.searchsorted(ends_sorted, s, side="left")
        overlap = n_le - n_lt - 1  # minus the self-match
        return pa.table({
            "user_id": batch.column("user_id"),
            "session_idx": batch.column("session_idx"),
            "n_overlap": pa.array(overlap, type=pa.int64()),
        })

    return sess.map_batches(
        count_overlaps,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _sql_interval_overlap() -> str:
    from .queries import SQL_SESSIONIZE

    return f"""
        WITH sess AS ({SQL_SESSIONIZE})
        SELECT a.user_id, a.session_idx,
               CAST(COUNT(*) - 1 AS BIGINT) AS n_overlap
        FROM sess a JOIN sess b
          ON b.session_start_us <= a.session_end_us
         AND b.session_end_us >= a.session_start_us
        GROUP BY a.user_id, a.session_idx
    """


def build_queries_ext27() -> dict:
    return {"interval_overlap": q_interval_overlap}


def build_oracles_ext27() -> dict:
    return {"interval_overlap": _sql_interval_overlap()}
