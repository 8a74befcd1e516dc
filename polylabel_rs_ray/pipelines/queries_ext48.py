"""Round-3 extension operators, batch 48: diversity indices.

``type_diversity_per_user`` — the Simpson diversity index (1 - sum p_i^2,
a.k.a. Gini-Simpson; the collision-probability complement used for
behavioural-diversity and vocabulary-concentration scoring) of each
user's event-type distribution, computed as the exact rational

    simpson = (n^2 - sum_i n_i^2) / n^2

— integer numerator/denominator columns plus ONE float division, so the
oracle matches bit-for-bit where a float p_i^2 accumulation would not.

Scale shape: ONE hash(user) exchange; within each partition a single
(user, type) lexsort yields the per-pair counts, and ``np.add.reduceat``
folds the per-user moments — no per-user Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import hash_exchange


def q_type_diversity_per_user(sf_dir: str, n_parts: int | None = None):
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

    def diversity(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        if len(uid) == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "n_types": pa.array([], type=pa.int64()),
                "div_num": pa.array([], type=pa.int64()),
                "div_den": pa.array([], type=pa.int64()),
                "simpson": pa.array([], type=pa.float64()),
            })
        et = np.array(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((et, uid))
        u, t = uid[order], et[order]
        new_pair = np.r_[True, (u[1:] != u[:-1]) | (t[1:] != t[:-1])]
        pstarts = np.nonzero(new_pair)[0]
        pc_ = np.diff(np.concatenate([pstarts, [len(u)]]))
        u2 = u[pstarts]
        ustarts = np.nonzero(np.r_[True, u2[1:] != u2[:-1]])[0]
        n = np.add.reduceat(pc_, ustarts)
        ss = np.add.reduceat(pc_ * pc_, ustarts)
        n_types = np.diff(np.concatenate([ustarts, [len(u2)]]))
        num = n * n - ss
        den = n * n
        return pa.table({
            "user_id": pa.array(u2[ustarts], type=pa.int64()),
            "n_events": pa.array(n, type=pa.int64()),
            "n_types": pa.array(n_types, type=pa.int64()),
            "div_num": pa.array(num, type=pa.int64()),
            "div_den": pa.array(den, type=pa.int64()),
            "simpson": pa.array(
                num.astype(np.float64) / den.astype(np.float64),
                type=pa.float64()),
        })

    return hash_exchange(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", diversity, n_parts,
    )


SQL_TYPE_DIVERSITY_PER_USER = """
WITH ut AS (
  SELECT user_id, event_type, COUNT(*) AS c FROM events GROUP BY 1, 2
), agg AS (
  SELECT user_id, CAST(SUM(c) AS BIGINT) AS n,
         CAST(SUM(c * c) AS BIGINT) AS ss,
         CAST(COUNT(*) AS BIGINT) AS n_types
  FROM ut GROUP BY 1
)
SELECT user_id, n AS n_events, n_types,
       n * n - ss AS div_num, n * n AS div_den,
       CAST(n * n - ss AS DOUBLE) / CAST(n * n AS DOUBLE) AS simpson
FROM agg
"""


def build_queries_ext48() -> dict:
    return {"type_diversity_per_user": q_type_diversity_per_user}


def build_oracles_ext48() -> dict:
    return {"type_diversity_per_user": SQL_TYPE_DIVERSITY_PER_USER}
