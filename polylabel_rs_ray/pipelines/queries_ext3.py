"""Round-2 extension operators, batch 4: event-stream analytics.

* ``type_streaks`` — gaps-and-islands: maximal runs of consecutive
  identical event types per user (longest streak + streak count).
* ``adoption_curve`` — cumulative distinct users per hour (running
  COUNT(DISTINCT) collapsed to a first-seen aggregate + tiny prefix sum).
* ``compress_stream`` — consecutive-duplicate elimination (keep the
  first event of every same-type run; LAG-filter semantics).
* ``user_event_unpivot`` — UNPIVOT: the wide per-user pivot melted back
  to long form, zeros included (the inverse of ``user_event_pivot``).

Same contracts as ``queries.py``; all outputs integer/string exact."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

HOUR_US = 3_600_000_000


def _user_sorted_stream(sf_dir: str):
    """events keyed by user, ready to hash-partition for per-partition ordered
    scans — the shared front of every sequence operator here."""
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        ts_us = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "event_id": batch.column("event_id"),
            "event_type": batch.column("event_type"),
        })

    return ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)


def _sorted_group(group: pa.Table):
    """(uid, eid, type StringArray, run-boundary mask) for one partition,
    ordered by (user, ts, event_id).  A run boundary is a user change or
    an event-type change — the islands of gaps-and-islands."""
    uid = group.column("user_id").to_numpy().astype(np.int64)
    ts = group.column("ts_us").to_numpy().astype(np.int64)
    eid = group.column("event_id").to_numpy().astype(np.int64)
    order = np.lexsort((eid, ts, uid))
    uid, eid = uid[order], eid[order]
    et = group.column("event_type")
    et = et.combine_chunks() if isinstance(et, pa.ChunkedArray) else et
    et = et.take(pa.array(order))
    same_type = pc.equal(et.slice(1), et.slice(0, len(et) - 1)).to_numpy(
        zero_copy_only=False
    )
    new_run = np.r_[True, (uid[1:] != uid[:-1]) | ~same_type]
    return uid, eid, et, new_run


# --------------------------------------------------------------------------
# gaps-and-islands: per-(user, type) longest streak + streak count
# --------------------------------------------------------------------------


def q_type_streaks(sf_dir: str, n_parts: int | None = None):
    """Gaps-and-islands over the event stream: for each (user, type), the
    longest run of consecutive same-type events and the number of runs —
    the engine-side equivalent of the classic rn - rn_per_type island
    trick.  Users are partition-confined, so one lexsort + boundary flags
    resolve every island; a per-partition arrow group_by finishes (user,
    type) locally — no second shuffle.  All integers -> exact oracle."""

    def streaks(group: pa.Table) -> pa.Table:
        uid, eid, et, new_run = _sorted_group(group)
        n = len(uid)
        if n == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "event_type": pa.array([], type=pa.string()),
                "max_streak": pa.array([], type=pa.int64()),
                "n_streaks": pa.array([], type=pa.int64()),
            })
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.r_[starts, n])
        tbl = pa.table({
            "user_id": pa.array(uid[starts], type=pa.int64()),
            "event_type": et.take(pa.array(starts)),
            "len": pa.array(lens, type=pa.int64()),
        })
        out = tbl.group_by(["user_id", "event_type"]).aggregate(
            [("len", "max"), ("len", "count")]
        )
        return pa.table({
            "user_id": out.column("user_id"),
            "event_type": out.column("event_type"),
            "max_streak": pc.cast(out.column("len_max"), pa.int64()),
            "n_streaks": pc.cast(out.column("len_count"), pa.int64()),
        })

    return hash_exchange(_user_sorted_stream(sf_dir), "user_id", streaks, n_parts)


SQL_TYPE_STREAKS = """
    WITH o AS (
        SELECT user_id, event_type,
               ROW_NUMBER() OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn,
               ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                  ORDER BY ts, event_id) AS rt
        FROM events
    ),
    isl AS (
        SELECT user_id, event_type, rn - rt AS grp, COUNT(*) AS len
        FROM o GROUP BY user_id, event_type, grp
    )
    SELECT user_id, event_type,
           CAST(MAX(len) AS BIGINT) AS max_streak,
           CAST(COUNT(*) AS BIGINT) AS n_streaks
    FROM isl GROUP BY user_id, event_type
"""


# --------------------------------------------------------------------------
# consecutive-duplicate compression (LAG filter)
# --------------------------------------------------------------------------


def q_compress_stream(sf_dir: str, n_parts: int | None = None):
    """Consecutive-duplicate elimination: keep only the first event of
    every same-type run per user (the stream-compaction step of event
    ingestion).  Same partition-confined lexsort as ``type_streaks``;
    the survivors are just the run-boundary rows."""

    def compress(group: pa.Table) -> pa.Table:
        uid, eid, et, new_run = _sorted_group(group)
        keep = np.flatnonzero(new_run)
        return pa.table({
            "event_id": pa.array(eid[keep], type=pa.int64()),
            "user_id": pa.array(uid[keep], type=pa.int64()),
            "event_type": et.take(pa.array(keep)),
        })

    return hash_exchange(_user_sorted_stream(sf_dir), "user_id", compress, n_parts)


SQL_COMPRESS_STREAM = """
    WITH o AS (
        SELECT event_id, user_id, event_type,
               LAG(event_type) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS prev
        FROM events
    )
    SELECT event_id, user_id, event_type
    FROM o WHERE prev IS NULL OR prev <> event_type
"""


# --------------------------------------------------------------------------
# cumulative distinct users per day (adoption curve)
# --------------------------------------------------------------------------


def q_adoption_curve(sf_dir: str):
    """Running COUNT(DISTINCT user) per hour WITHOUT a running distinct:
    collapse to each user's first-seen hour (map-side-combined min), count
    new users per hour (second tiny aggregate), and prefix-sum the
    O(hours) table on the driver — the only full-data work is two
    streaming aggregates.  The hour domain is bounded (calendar time), so
    the final cumsum is constant-size no matter the corpus."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def hours(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        hr = (
            batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
            // HOUR_US
        )
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "hr": pa.array(hr, type=pa.int64()),
        })

    first_seen = grouped_aggregate(
        ds.map_batches(hours, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("min", "hr", "h0")],
    )
    per_hr = (
        grouped_aggregate(first_seen, ["h0"], [("count", None, "new_users")])
        .to_pandas()  # O(hours) rows — bounded by calendar time
        .sort_values("h0")
    )
    cum = per_hr["new_users"].cumsum()
    return pa.table({
        "hr": pa.array(per_hr["h0"].to_numpy(), type=pa.int64()),
        "new_users": pa.array(per_hr["new_users"].to_numpy(), type=pa.int64()),
        "cum_users": pa.array(cum.to_numpy(), type=pa.int64()),
    })


SQL_ADOPTION_CURVE = """
    WITH f AS (
        SELECT user_id, MIN(epoch_us(ts) // 3600000000) AS h0
        FROM events GROUP BY user_id
    ),
    n AS (SELECT h0, CAST(COUNT(*) AS BIGINT) AS new_users FROM f GROUP BY h0)
    SELECT CAST(h0 AS BIGINT) AS hr, new_users,
           CAST(SUM(new_users) OVER (ORDER BY h0
                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_users
    FROM n
"""


# --------------------------------------------------------------------------
# UNPIVOT (wide -> long, inverse of user_event_pivot)
# --------------------------------------------------------------------------


def q_user_event_unpivot(sf_dir: str):
    """UNPIVOT: melt the wide per-user pivot back to (user, type, n) long
    form, zeros included — one vectorized repeat/ravel per batch over the
    pivot's streaming output (no extra shuffle beyond the pivot's own)."""
    from .queries import PIVOT_TYPES, q_user_event_pivot

    wide = q_user_event_pivot(sf_dir)
    types = list(PIVOT_TYPES)
    K = len(types)

    def melt(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        mat = np.column_stack(
            [batch.column(f"n_{t}").to_numpy().astype(np.int64) for t in types]
        )
        n = len(uid)
        return pa.table({
            "user_id": pa.array(np.repeat(uid, K), type=pa.int64()),
            "event_type": pa.array(np.tile(np.asarray(types, dtype=object), n),
                                   type=pa.string()),
            "n": pa.array(mat.ravel(), type=pa.int64()),
        })

    return wide.map_batches(melt, batch_format="pyarrow", zero_copy_batch=True)


def _sql_user_event_unpivot() -> str:
    from .queries import PIVOT_TYPES, SQL_USER_EVENT_PIVOT

    on = ", ".join(f"n_{t} AS '{t}'" for t in PIVOT_TYPES)
    return f"""
        UNPIVOT (SELECT * EXCLUDE (n_total) FROM ({SQL_USER_EVENT_PIVOT}))
        ON {on} INTO NAME event_type VALUE n
    """


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def build_queries_ext3() -> dict:
    return {
        "type_streaks": q_type_streaks,
        "compress_stream": q_compress_stream,
        "adoption_curve": q_adoption_curve,
        "user_event_unpivot": q_user_event_unpivot,
    }


def build_oracles_ext3() -> dict:
    return {
        "type_streaks": SQL_TYPE_STREAKS,
        "compress_stream": SQL_COMPRESS_STREAM,
        "adoption_curve": SQL_ADOPTION_CURVE,
        "user_event_unpivot": _sql_user_event_unpivot(),
    }
