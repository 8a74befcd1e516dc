"""Round-3 extension operators, batch 82: consistent-hash ring audit and
varint encoding cost.

``consistent_hash_audit`` — the shard-assignment structure audited
end-to-end: S named shards each project V virtual nodes onto a hash
ring (md5 of "shard:vnode", masked to 63 bits); every user key maps to
the first vnode clockwise.  The audit reports per-shard key loads AND
the rebalancing cost of adding one more shard — exactly how many keys
move (consistent hashing's defining guarantee: only keys landing in
the new shard's arcs move).  All ring arithmetic is md5-replayable in
SQL, ring wrap included.

``varint_size_estimate`` — the storage-planning question "how many
bytes would delta-encoded event times cost?": per-user time deltas in
microseconds, each costing ``ceil(bits/7)`` varint bytes (the CASE
ladder over 7-bit thresholds — exact integers), plus 8 fixed bytes
per user for the absolute first timestamp.  Sequences co-locate with
the usual user hash exchange.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

MASK63 = (1 << 63) - 1
RING_SHARDS = 8
RING_VNODES = 4
NEW_SHARD = "shard_8"  # shards are shard_0..shard_7; this one is added


def _ring_points(shards: list[str]) -> tuple[np.ndarray, list[str]]:
    pos, owner = [], []
    for s in shards:
        for v in range(RING_VNODES):
            h = int.from_bytes(
                hashlib.md5(f"{s}:{v}".encode()).digest()[8:], "little"
            ) & MASK63
            pos.append(h)
            owner.append(s)
    pos = np.array(pos, dtype=np.int64)
    order = np.argsort(pos)
    return pos[order], [owner[i] for i in order]


def _owner_of(keys: np.ndarray, ring_pos: np.ndarray,
              ring_owner: list[str]) -> np.ndarray:
    idx = np.searchsorted(ring_pos, keys, side="left")
    idx = np.where(idx == len(ring_pos), 0, idx)  # ring wrap
    return np.array([ring_owner[i] for i in idx], dtype=object)


def q_consistent_hash_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    old_shards = [f"shard_{i}" for i in range(RING_SHARDS)]
    new_shards = old_shards + [NEW_SHARD]
    old_pos, old_own = _ring_points(old_shards)
    new_pos, new_own = _ring_points(new_shards)

    def stage(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        uid = np.unique(uid)
        kh = np.fromiter(
            (int.from_bytes(hashlib.md5(f"user:{u}".encode()).digest()[8:],
                            "little") & MASK63 for u in uid),
            dtype=np.int64, count=len(uid))
        o_old = _owner_of(kh, old_pos, old_own)
        o_new = _owner_of(kh, new_pos, new_own)
        t = pa.table({
            "shard": pa.array(o_old.tolist(), type=pa.string()),
            "moved": pa.array((o_old != o_new).astype(np.int64),
                              type=pa.int64()),
        })
        out = t.group_by(["shard"]).aggregate([("shard", "count"),
                                               ("moved", "sum")])
        return pa.table({
            "shard": out.column("shard"),
            "n_keys": pc.cast(out.column("shard_count"), pa.int64()),
            "n_moved": pc.cast(out.column("moved_sum"), pa.int64()),
        })

    # distinct users first (tiny domain per batch after unique, but dedup
    # ACROSS batches still needed — run on the distinct-user table)
    def distinct_users(batch: pa.Table) -> pa.Table:
        uid = np.unique(batch.column("user_id").to_numpy().astype(np.int64))
        return pa.table({"user_id": pa.array(uid, type=pa.int64())})

    from .agg import grouped_aggregate

    users = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id"])
        .map_batches(distinct_users, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["user_id"], [("count", None, "_n")],
    ).select_columns(["user_id"])

    return grouped_aggregate(
        users.map_batches(stage, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["shard"],
        [("sum", "n_keys", "n_keys"), ("sum", "n_moved", "n_moved")],
    )


def _sql_consistent_hash_audit() -> str:
    old = ", ".join(f"('shard_{i}', {v})"
                    for i in range(RING_SHARDS) for v in range(RING_VNODES))
    new = ", ".join(
        f"('{s}', {v})"
        for s in [f"shard_{i}" for i in range(RING_SHARDS)] + [NEW_SHARD]
        for v in range(RING_VNODES))
    ring = f"""
      SELECT shard,
             CAST(md5_number_lower(shard || ':' || CAST(v AS VARCHAR))
                  % {1 << 63} AS BIGINT) AS pos
      FROM (VALUES {{vals}}) AS t(shard, v)
    """
    owner = """
      SELECT k.user_id, k.kh,
             COALESCE(
               (SELECT r.shard FROM {ring} r WHERE r.pos >= k.kh
                ORDER BY r.pos LIMIT 1),
               (SELECT r.shard FROM {ring} r ORDER BY r.pos LIMIT 1)
             ) AS shard
      FROM keys k
    """
    return f"""
        WITH keys AS (
          SELECT user_id,
                 CAST(md5_number_lower('user:' || CAST(user_id AS VARCHAR))
                      % {1 << 63} AS BIGINT) AS kh
          FROM (SELECT DISTINCT user_id FROM events)
        ),
        ring_old AS ({ring.format(vals=old)}),
        ring_new AS ({ring.format(vals=new)}),
        own_old AS ({owner.format(ring='ring_old')}),
        own_new AS ({owner.format(ring='ring_new')})
        SELECT o.shard,
               CAST(COUNT(*) AS BIGINT) AS n_keys,
               CAST(SUM(CASE WHEN o.shard <> n.shard THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_moved
        FROM own_old o JOIN own_new n ON o.user_id = n.user_id
        GROUP BY o.shard
    """


def q_varint_size_estimate(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        same = np.empty(len(uid), dtype=bool)
        same[:-1] = uid[1:] == uid[:-1]
        same[-1] = False
        dt = np.where(same, np.roll(ts, -1) - ts, 0)
        # varint bytes for each delta: ceil(bits/7), minimum 1 byte
        nbytes = np.zeros(len(dt), dtype=np.int64)
        active = same
        v = dt.copy()
        nbytes[active] = 1
        v = v >> 7
        while (m := active & (v > 0)).any():
            nbytes[m] += 1
            v = v >> 7
        n_users = np.concatenate([[True], uid[1:] != uid[:-1]]).sum()
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n_users": pa.array([int(n_users)], type=pa.int64()),
            "n_deltas": pa.array([int(same.sum())], type=pa.int64()),
            "delta_bytes": pa.array([int(nbytes.sum())], type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    agg = grouped_aggregate(
        hash_exchange(ds, "user_id", per_partition, n_parts),
        ["k"],
        [("sum", "n_users", "n_users"), ("sum", "n_deltas", "n_deltas"),
         ("sum", "delta_bytes", "delta_bytes")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        nu = batch.column("n_users").to_numpy().astype(np.int64)
        nd = batch.column("n_deltas").to_numpy().astype(np.int64)
        db = batch.column("delta_bytes").to_numpy().astype(np.int64)
        return pa.table({
            "n_users": pa.array(nu, type=pa.int64()),
            "n_deltas": pa.array(nd, type=pa.int64()),
            "delta_bytes": pa.array(db, type=pa.int64()),
            "total_bytes": pa.array(db + 8 * nu, type=pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


# varint byte-count thresholds: k bytes encode deltas < 2^(7k)
_VARINT_LADDER = " ".join(
    f"WHEN dt < {1 << (7 * k)} THEN {k}" for k in range(1, 10)
)

SQL_VARINT_SIZE_ESTIMATE = f"""
WITH seq AS (
  SELECT user_id,
         LEAD(CAST(epoch_us(ts) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY ts, event_id)
           - CAST(epoch_us(ts) AS BIGINT) AS dt
  FROM events
),
d AS (SELECT user_id, dt FROM seq WHERE dt IS NOT NULL),
per AS (
  SELECT CAST(CASE {_VARINT_LADDER} ELSE 10 END AS BIGINT) AS nb
  FROM d
)
SELECT CAST((SELECT COUNT(DISTINCT user_id) FROM events) AS BIGINT)
         AS n_users,
       CAST((SELECT COUNT(*) FROM d) AS BIGINT) AS n_deltas,
       CAST((SELECT COALESCE(SUM(nb), 0) FROM per) AS BIGINT)
         AS delta_bytes,
       CAST((SELECT COALESCE(SUM(nb), 0) FROM per)
            + 8 * (SELECT COUNT(DISTINCT user_id) FROM events) AS BIGINT)
         AS total_bytes
"""


def build_queries_ext82() -> dict:
    return {
        "consistent_hash_audit": q_consistent_hash_audit,
        "varint_size_estimate": q_varint_size_estimate,
    }


def build_oracles_ext82() -> dict:
    return {
        "consistent_hash_audit": _sql_consistent_hash_audit(),
        "varint_size_estimate": SQL_VARINT_SIZE_ESTIMATE,
    }
