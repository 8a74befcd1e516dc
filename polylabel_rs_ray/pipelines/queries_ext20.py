"""Round-2 extension operators, batch 21: inactivity analysis.

``user_inactivity_gaps`` — per-user maximum inactivity gap (largest gap
between consecutive events) plus event count: the partition-confined
ordered-scan shape shared with sessionize/streaks, reduced to a
segmented diff-max.  Integer microseconds end-to-end."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import hash_exchange

def q_user_inactivity_gaps(sf_dir: str, n_parts: int | None = None):
    from .queries_ext3 import _user_sorted_stream

    def gaps(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        same = np.r_[False, uid[1:] == uid[:-1]]
        d = np.r_[0, np.diff(ts)]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        lens = np.diff(np.r_[starts, len(uid)])
        users = uid[starts]
        gap = np.zeros(len(uid), dtype=np.int64)
        gap[same] = d[same]
        # segmented max via a scatter-max over per-user slots
        slot = np.repeat(np.arange(len(starts)), lens)
        mx = np.zeros(len(starts), dtype=np.int64)
        np.maximum.at(mx, slot, gap)
        return pa.table({
            "user_id": pa.array(users, type=pa.int64()),
            "max_gap_us": pa.array(mx, type=pa.int64()),
            "n_events": pa.array(lens, type=pa.int64()),
        })

    return hash_exchange(_user_sorted_stream(sf_dir), "user_id", gaps, n_parts)


SQL_USER_INACTIVITY_GAPS = """
    WITH o AS (
        SELECT user_id, epoch_us(ts) AS t,
               LAG(epoch_us(ts)) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
        FROM events
    )
    SELECT CAST(user_id AS BIGINT) AS user_id,
           CAST(COALESCE(MAX(t - prev), 0) AS BIGINT) AS max_gap_us,
           CAST(COUNT(*) AS BIGINT) AS n_events
    FROM o GROUP BY user_id
"""


def build_queries_ext20() -> dict:
    return {"user_inactivity_gaps": q_user_inactivity_gaps}


def build_oracles_ext20() -> dict:
    return {"user_inactivity_gaps": SQL_USER_INACTIVITY_GAPS}
