"""Round-3 extension operators, batch 39: streaming watermark semantics.

``late_event_audit`` — the event-time vs processing-time audit every
streaming pipeline needs: events arrive OUT OF ORDER (arrival key =
event time + a deterministic ±2 h jitter both sides replay via
``md5_number_lower(event_id)``), the watermark is the running max event
time over arrival order, and an event is LATE iff its event time sits
more than the allowed lateness (1 h) behind the watermark at its
arrival — i.e. a tumbling-window engine would have already closed its
window.  Output: per event type, late / total counts.

The running max over a global order is computed WITHOUT a global sort —
the distributed-prefix pattern (same as ``token_packing``'s prefix sum):

1. bounded pre-pass: global [min, max] of the arrival key (per-block
   partials, driver fold),
2. arithmetic time-range partitions ``(akey - amin) * P // span`` — one
   co-locating exchange, ordered BY CONSTRUCTION across partitions,
3. per-partition max event-time -> P-row driver table -> exclusive
   prefix max per partition,
4. per-partition local sort + cummax with the exclusive base; the
   strictly-preceding watermark is the one-position-shifted cummax,
5. tiny (event_type, late) aggregate.

md5 is the arrival-jitter hash purely for SQL replayability (the
repo-wide ``md5_number_lower`` convention); a deployment would use any
cheap integer mix.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

JITTER_US = 7_200_000_000  # +-2 h arrival jitter
LATE_US = 3_600_000_000    # 1 h allowed lateness


def _akey_batch(event_ids: np.ndarray, tu: np.ndarray) -> np.ndarray:
    """Deterministic arrival key: event time + md5-derived jitter.  The
    per-row md5 is the SQL-replayability convention (bounded: one digest
    per event row of a thin 3-column pass)."""
    jit = np.fromiter(
        (
            int.from_bytes(
                hashlib.md5(str(int(e)).encode()).digest()[8:], "little"
            ) % (2 * JITTER_US + 1)
            for e in event_ids
        ),
        dtype=np.int64,
        count=len(event_ids),
    )
    return tu + jit - JITTER_US


def q_late_event_audit(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    P = n_partitions(n_parts)
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type"]
    )

    def with_akey(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        tu = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({
            "event_id": pa.array(eid, type=pa.int64()),
            "tu": pa.array(tu, type=pa.int64()),
            "akey": pa.array(_akey_batch(eid, tu), type=pa.int64()),
            "event_type": batch.column("event_type"),
        })

    keyed = ds.map_batches(with_akey, batch_format="pyarrow", zero_copy_batch=True)

    # bounded pre-pass: global arrival-key range (per-block partials)
    def key_range(batch: pa.Table) -> pa.Table:
        a = batch.column("akey").to_numpy()
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "mn": pa.array([int(a.min()) if len(a) else 2**62], type=pa.int64()),
            "mx": pa.array([int(a.max()) if len(a) else -2**62], type=pa.int64()),
        })

    rng = grouped_aggregate(
        keyed.map_batches(key_range, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("min", "mn", "mn"), ("max", "mx", "mx")],
    ).to_pandas()
    amin, amax = int(rng["mn"][0]), int(rng["mx"][0])
    span = max(amax - amin + 1, 1)

    def to_parts(batch: pa.Table) -> pa.Table:
        a = batch.column("akey").to_numpy().astype(np.int64)
        part = np.clip((a - amin) * P // span, 0, P - 1)
        return batch.append_column("part", pa.array(part, type=pa.int64()))

    parted = keyed.map_batches(
        to_parts, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # two consumers: the prefix table and the audit pass

    # P-row reduce -> exclusive prefix max of event time per partition
    pmax = grouped_aggregate(
        parted, ["part"], [("max", "tu", "mx")]
    ).to_pandas().sort_values("part")
    bases = {}
    running = -(2**62)
    for _, row in pmax.iterrows():
        bases[int(row["part"])] = running
        running = max(running, int(row["mx"]))

    def audit(group: pa.Table) -> pa.Table:
        part = int(group.column("part")[0].as_py())
        a = group.column("akey").to_numpy().astype(np.int64)
        tu = group.column("tu").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = group.column("event_type")
        order = np.lexsort((eid, a))
        tu_s = tu[order]
        # strictly-preceding watermark: shifted cummax with exclusive base
        cummax = np.maximum.accumulate(tu_s)
        wm = np.concatenate([[bases[part]], cummax[:-1]])
        wm = np.maximum(wm, bases[part])
        late = tu_s < wm - LATE_US
        t = pa.table({
            "event_type": et.take(pa.array(order, type=pa.int64())),
            "is_late": pa.array(late.astype(np.int64), type=pa.int64()),
            "one": pa.array(np.ones(len(late), np.int64)),
        })
        out = t.group_by(["event_type"]).aggregate(
            [("is_late", "sum"), ("one", "sum")]
        )
        return pa.table({
            "event_type": out.column("event_type"),
            "n_late": pc.cast(out.column("is_late_sum"), pa.int64()),
            "n_total": pc.cast(out.column("one_sum"), pa.int64()),
        })

    partials = group_map(parted, "part", audit)
    return grouped_aggregate(
        partials, ["event_type"],
        [("sum", "n_late", "n_late"), ("sum", "n_total", "n_total")],
    )


SQL_LATE_EVENT_AUDIT = f"""
WITH e AS (
  SELECT event_id, event_type, epoch_us(ts) AS tu,
         epoch_us(ts)
           + (md5_number_lower(CAST(event_id AS VARCHAR))
              % {2 * JITTER_US + 1}) - {JITTER_US} AS akey
  FROM events
), w AS (
  SELECT event_type, tu,
         MAX(tu) OVER (ORDER BY akey, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM e
)
SELECT event_type,
       CAST(COUNT(*) FILTER (wm IS NOT NULL AND tu < wm - {LATE_US}) AS BIGINT)
           AS n_late,
       CAST(COUNT(*) AS BIGINT) AS n_total
FROM w GROUP BY event_type
"""


def build_queries_ext39() -> dict:
    return {"late_event_audit": q_late_event_audit}


def build_oracles_ext39() -> dict:
    return {"late_event_audit": SQL_LATE_EVENT_AUDIT}
