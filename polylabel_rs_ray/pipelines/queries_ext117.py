"""Round-3 extension operators, batch 117: sliding-window distinct
users + frame-of-reference encoding cost.

``sliding_distinct_users`` — for EVERY hour h in the 720-hour January
2024 window, the number of DISTINCT users active in the trailing
24-hour window [h−23, h].  Sliding-window COUNT(DISTINCT) cannot ride
a plain delta (a user with many events still counts once), so the
engine uses the interval-union formulation: a user covers hour h iff
it has an event in [h−23, h], i.e. the user's coverage set is the
union of [idx, idx+23] intervals over its active hours.  Per user
(one user-hash exchange, per-partition lexsort) the active-hour list
merges into disjoint covered segments (gap > 23 splits), each segment
emits (start, +1)/(end+1, −1) deltas; deltas aggregate PER HOUR
(bounded ≤ 2·720 rows after the combine) and a driver prefix sum over
the 720-slot vector yields every count — no global sort, no
users×hours×24 blow-up.  The oracle is the direct correlated form
(hours × active-pairs range join + COUNT(DISTINCT)).

``for_encoding_cost`` — the frame-of-reference bit-packing estimator
(the 6th member of the encoding-cost family: RLE / varint / dict /
front-coding / delta-of-delta): events partitioned into fixed blocks
``event_id // 1024``; per block the packed width is
``bits(max(ts_us) − min(ts_us))`` and the cost is ``128 + width·n``
bits (reference + width headers).  Exact integers: the width is the
binary digit count, replayed in SQL via ``length(bin(range))`` (no
float log anywhere on the SQL side; the numpy side stays below 2^52
where floor(log2) is exact).  One bounded groupby on the arithmetic
block key — no shuffle skew possible (event_id is dense).

Reference anchors: windowed-aggregation + storage-planning surface
(SURVEY.md §2.3/§2.4); siblings: ext78 RLE, ext82 varint, ext83 dict,
ext95 front-coding, ext114 delta-of-delta, ext112 peak concurrency.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

WINDOW_H = 24
N_HOURS = 720
FOR_BLOCK = 1024
_HOUR_US = 3_600_000_000
_ORIGIN_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z


# --------------------------------------------------------------------------
# sliding_distinct_users
# --------------------------------------------------------------------------


def q_sliding_distinct_users(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        idx = (us - _ORIGIN_US) // _HOUR_US
        # map-side distinct (user, hour) collapse before the exchange
        t = pa.table({"user_id": pa.array(uid, type=pa.int64()),
                      "idx": pa.array(idx, type=pa.int64())})
        return t.group_by(["user_id", "idx"]).aggregate([])

    def deltas(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        idx = group.column("idx").to_numpy().astype(np.int64)
        order = np.lexsort((idx, uid))
        uid, idx = uid[order], idx[order]
        # consecutive-dup drop (map-side distinct is per batch only)
        keep = np.ones(len(uid), dtype=bool)
        keep[1:] = (uid[1:] != uid[:-1]) | (idx[1:] != idx[:-1])
        uid, idx = uid[keep], idx[keep]
        if len(uid) == 0:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "d": pa.array([], type=pa.int64())})
        # segment start: new user OR gap > WINDOW_H-1 (coverage intervals
        # [idx, idx+23] merge exactly when successive idx differ <= 23)
        new_seg = np.ones(len(uid), dtype=bool)
        new_seg[1:] = (uid[1:] != uid[:-1]) | (idx[1:] - idx[:-1] > WINDOW_H - 1)
        seg_id = np.cumsum(new_seg) - 1
        starts = idx[new_seg]
        seg_last = np.zeros(seg_id[-1] + 1, dtype=np.int64)
        np.maximum.at(seg_last, seg_id, idx)
        ends = seg_last + WINDOW_H  # exclusive end of coverage
        h = np.concatenate([starts, ends])
        d = np.concatenate([np.ones(len(starts), dtype=np.int64),
                            -np.ones(len(ends), dtype=np.int64)])
        t = pa.table({"h": pa.array(h, type=pa.int64()),
                      "d": pa.array(d, type=pa.int64())})
        out = t.group_by(["h"]).aggregate([("d", "sum")])
        return pa.table({"h": out.column("h"),
                         "d": pc.cast(out.column("d_sum"), pa.int64())})

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    delta_ds = hash_exchange(keyed_ds, "user_id", deltas, n_parts)
    agg = grouped_aggregate(
        delta_ds, ["h"], [("sum", "d", "d")],
    ).to_pandas()  # bounded: <= 2 * N_HOURS + spill rows
    vec = np.zeros(N_HOURS + WINDOW_H + 2, dtype=np.int64)
    h = agg["h"].to_numpy()
    d = agg["d"].to_numpy()
    mask = (h >= 0) & (h < len(vec))
    vec[h[mask]] = d[mask]
    counts = np.cumsum(vec)[:N_HOURS]
    return ray.data.from_arrow(pa.table({
        "hour_idx": pa.array(np.arange(N_HOURS), type=pa.int64()),
        "n_users_24h": pa.array(counts, type=pa.int64()),
    }))


def _sql_sliding_distinct_users() -> str:
    return f"""
        WITH hrs AS (
          SELECT CAST(unnest(range({N_HOURS})) AS BIGINT) AS hour_idx
        ), act AS (
          SELECT DISTINCT user_id,
                 (epoch_us(ts) - {_ORIGIN_US}) // {_HOUR_US} AS idx
          FROM events
        )
        SELECT h.hour_idx,
               CAST(COUNT(DISTINCT a.user_id) AS BIGINT) AS n_users_24h
        FROM hrs h LEFT JOIN act a
          ON a.idx BETWEEN h.hour_idx - {WINDOW_H - 1} AND h.hour_idx
        GROUP BY h.hour_idx
    """


# --------------------------------------------------------------------------
# for_encoding_cost
# --------------------------------------------------------------------------


def q_for_encoding_cost(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        blk = eid // FOR_BLOCK
        t = pa.table({"block_id": pa.array(blk, type=pa.int64()),
                      "lo": pa.array(us, type=pa.int64()),
                      "hi": pa.array(us, type=pa.int64()),
                      "n": pa.array(np.ones(len(blk), dtype=np.int64))})
        out = t.group_by(["block_id"]).aggregate(
            [("lo", "min"), ("hi", "max"), ("n", "sum")])
        return pa.table({
            "block_id": out.column("block_id"),
            "lo": out.column("lo_min"),
            "hi": out.column("hi_max"),
            "n": pc.cast(out.column("n_sum"), pa.int64()),
        })

    agg = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["block_id"],
        [("min", "lo", "lo"), ("max", "hi", "hi"), ("sum", "n", "n")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        lo = batch.column("lo").to_numpy().astype(np.int64)
        hi = batch.column("hi").to_numpy().astype(np.int64)
        n = batch.column("n").to_numpy().astype(np.int64)
        rng = hi - lo
        if np.any(rng >= (1 << 52)):  # floor(log2) exactness envelope
            raise ValueError("FOR range exceeds exact-log2 envelope")
        width = np.where(rng == 0, 0,
                         np.floor(np.log2(np.maximum(rng, 1))).astype(np.int64)
                         + 1)
        cost = 128 + width * n
        return pa.table({
            "block_id": batch.column("block_id"),
            "n": batch.column("n"),
            "vmin": pa.array(lo, type=pa.int64()),
            "width_bits": pa.array(width, type=pa.int64()),
            "cost_bits": pa.array(cost, type=pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def _sql_for_encoding_cost() -> str:
    return f"""
        WITH blocks AS (
          SELECT event_id // {FOR_BLOCK} AS block_id,
                 MIN(epoch_us(ts)) AS lo, MAX(epoch_us(ts)) AS hi,
                 CAST(COUNT(*) AS BIGINT) AS n
          FROM events GROUP BY 1
        )
        SELECT CAST(block_id AS BIGINT) AS block_id, n,
               CAST(lo AS BIGINT) AS vmin,
               CAST(CASE WHEN hi = lo THEN 0
                    ELSE length(bin(hi - lo)) END AS BIGINT) AS width_bits,
               CAST(128 + CASE WHEN hi = lo THEN 0
                    ELSE length(bin(hi - lo)) END * n AS BIGINT) AS cost_bits
        FROM blocks
    """


def build_queries_ext117() -> dict:
    return {
        "sliding_distinct_users": q_sliding_distinct_users,
        "for_encoding_cost": q_for_encoding_cost,
    }


def build_oracles_ext117() -> dict:
    return {
        "sliding_distinct_users": _sql_sliding_distinct_users(),
        "for_encoding_cost": _sql_for_encoding_cost(),
    }
