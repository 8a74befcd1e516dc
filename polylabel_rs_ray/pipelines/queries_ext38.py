"""Round-3 extension operators, batch 38: privacy auditing.

``k_anonymity_audit`` — the re-identification risk audit run before a
dataset release: each user is reduced to a derived quasi-identifier
(dominant event type — ties to the lexicographically smallest — plus an
activity band ``n_events // 10``), users sharing a QI form an
equivalence class, and every user is flagged by whether their class
reaches k = 10 (k-anonymity: a released row is safe only if at least
k-1 other users are indistinguishable from it).

Scale shape: ONE hash(user) exchange computes per-user (top_type, band)
with partition-confined lexsorts (no per-user Python); the QI-class
histogram is a bounded map-side-combine aggregate (|types| x |bands|
rows) collected to the driver and BROADCAST back into the stateless
flag stage — annotated bounded, the same convention as the other
O(domain) histogram collections.  The per-user table is checkpointed via
``materialize`` so the class pass and the flag pass share one execution.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import hash_exchange

K_ANON = 10


def q_k_anonymity_audit(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "event_type": batch.column("event_type"),
        })

    def user_qi(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        if len(uid) == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "top_type": pa.array([], type=pa.string()),
                "abucket": pa.array([], type=pa.int64()),
            })
        et = np.array(group.column("event_type").to_pylist(), dtype=object)
        # (user, type) counts via one lexsort + run lengths
        order = np.lexsort((et, uid))
        u, t = uid[order], et[order]
        new = np.concatenate([[True], (u[1:] != u[:-1]) | (t[1:] != t[:-1])])
        starts = np.nonzero(new)[0]
        cnts = np.diff(np.concatenate([starts, [len(u)]]))
        u2, t2 = u[starts], t[starts]
        # per-user total events
        ustarts = np.nonzero(np.concatenate([[True], u2[1:] != u2[:-1]]))[0]
        ne = np.add.reduceat(cnts, ustarts)
        # per-user dominant type: (count DESC, type ASC) argmax
        order2 = np.lexsort((t2, -cnts, u2))
        top_idx = order2[
            np.nonzero(np.concatenate([[True], u2[order2][1:] != u2[order2][:-1]]))[0]
        ]
        return pa.table({
            "user_id": pa.array(u2[top_idx], type=pa.int64()),
            "top_type": pa.array(t2[top_idx].tolist(), type=pa.string()),
            "abucket": pa.array(ne // 10, type=pa.int64()),
        })

    users = (
        hash_exchange(
            ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
            "user_id", user_qi, n_parts,
        )
        .materialize()  # checkpoint: class pass + flag pass share one run
    )

    classes = grouped_aggregate(
        users, ["top_type", "abucket"], [("count", None, "class_n")]
    ).to_pandas()  # bounded: |event types| x |activity bands| rows
    class_n = {
        (r.top_type, int(r.abucket)): int(r.class_n)
        for r in classes.itertuples()
    }
    class_ref = ray.put(class_n)

    def flag(batch: pa.Table) -> pa.Table:
        lookup = ray.get(class_ref)
        tt = batch.column("top_type").to_pylist()
        ab = batch.column("abucket").to_numpy().astype(np.int64)
        n = np.array([lookup[(t, int(b))] for t, b in zip(tt, ab)], dtype=np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "top_type": batch.column("top_type"),
            "abucket": batch.column("abucket"),
            "class_n": pa.array(n, type=pa.int64()),
            "meets_k": pa.array((n >= K_ANON).astype(np.int64), type=pa.int64()),
        })

    return users.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


SQL_K_ANONYMITY_AUDIT = f"""
WITH ut AS (
  SELECT user_id, event_type, COUNT(*) AS n FROM events GROUP BY 1, 2
), tot AS (
  SELECT user_id, CAST(SUM(n) AS BIGINT) AS ne FROM ut GROUP BY 1
), top AS (
  SELECT user_id, event_type AS top_type FROM (
    SELECT user_id, event_type,
           ROW_NUMBER() OVER (PARTITION BY user_id
                              ORDER BY n DESC, event_type) AS rn
    FROM ut
  ) WHERE rn = 1
), qi AS (
  SELECT tot.user_id, top.top_type, CAST(tot.ne // 10 AS BIGINT) AS abucket
  FROM tot JOIN top USING (user_id)
), cls AS (
  SELECT top_type, abucket, CAST(COUNT(*) AS BIGINT) AS class_n
  FROM qi GROUP BY 1, 2
)
SELECT q.user_id, q.top_type, q.abucket, c.class_n,
       CAST(CASE WHEN c.class_n >= {K_ANON} THEN 1 ELSE 0 END AS BIGINT)
           AS meets_k
FROM qi q JOIN cls c USING (top_type, abucket)
"""


def build_queries_ext38() -> dict:
    return {"k_anonymity_audit": q_k_anonymity_audit}


def build_oracles_ext38() -> dict:
    return {"k_anonymity_audit": SQL_K_ANONYMITY_AUDIT}
