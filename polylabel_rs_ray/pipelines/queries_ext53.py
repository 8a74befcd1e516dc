"""Round-3 extension operators, batch 53: Markov transition estimation.

``type_transition_matrix`` — the first-order Markov chain of event types
estimated from per-user event sequences (the sequence model behind
next-action prediction and session simulation): each user's events,
ordered by (ts, event_id), contribute their consecutive (prev, next)
type bigrams; the output is the bounded |types|^2 transition table with
exact counts, per-source row totals, and the MLE transition probability
as ONE float division of the two exact integers.

Scale shape: one hash(user) exchange (sequences stay whole — transitions
are computed inside map_groups over the full partition, never a
sliceable batch), vectorized shift comparison per partition, bounded
final aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


def q_type_transition_matrix(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "tu": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "event_type": batch.column("event_type"),
        })

    def transitions(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        empty = pa.table({
            "prev_type": pa.array([], type=pa.string()),
            "next_type": pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
        })
        if len(uid) < 2:
            return empty
        tu = group.column("tu").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = np.array(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, tu, uid))
        u, t = uid[order], et[order]
        same_user = u[1:] == u[:-1]
        prev = t[:-1][same_user]
        nxt = t[1:][same_user]
        if len(prev) == 0:
            return empty
        tt = pa.table({
            "prev_type": pa.array(prev.tolist(), type=pa.string()),
            "next_type": pa.array(nxt.tolist(), type=pa.string()),
        })
        out = tt.group_by(["prev_type", "next_type"]).aggregate(
            [("prev_type", "count")]
        )
        return pa.table({
            "prev_type": out.column("prev_type"),
            "next_type": out.column("next_type"),
            "n": pc.cast(out.column("prev_type_count"), pa.int64()),
        })

    counts = grouped_aggregate(
        hash_exchange(
            ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
            "user_id", transitions, n_parts,
        ),
        ["prev_type", "next_type"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: |types|^2 rows

    totals = counts.groupby("prev_type")["n"].sum().to_dict()
    row_n = counts["prev_type"].map(totals).astype(np.int64)
    t = pa.table({
        "prev_type": pa.array(counts["prev_type"].tolist(), type=pa.string()),
        "next_type": pa.array(counts["next_type"].tolist(), type=pa.string()),
        "n": pa.array(counts["n"].to_numpy().astype(np.int64), type=pa.int64()),
        "row_total": pa.array(row_n.to_numpy(), type=pa.int64()),
        "p": pa.array(
            counts["n"].to_numpy().astype(np.float64) / row_n.to_numpy().astype(np.float64),
            type=pa.float64()),
    })
    return ray.data.from_arrow(t)


SQL_TYPE_TRANSITION_MATRIX = """
WITH seq AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY epoch_us(ts), event_id) AS prev_type
  FROM events
), tr AS (
  SELECT prev_type, event_type AS next_type, CAST(COUNT(*) AS BIGINT) AS n
  FROM seq WHERE prev_type IS NOT NULL
  GROUP BY 1, 2
), tot AS (
  SELECT prev_type, CAST(SUM(n) AS BIGINT) AS row_total FROM tr GROUP BY 1
)
SELECT tr.prev_type, tr.next_type, tr.n, tot.row_total,
       CAST(tr.n AS DOUBLE) / CAST(tot.row_total AS DOUBLE) AS p
FROM tr JOIN tot USING (prev_type)
"""


def build_queries_ext53() -> dict:
    return {"type_transition_matrix": q_type_transition_matrix}


def build_oracles_ext53() -> dict:
    return {"type_transition_matrix": SQL_TYPE_TRANSITION_MATRIX}
