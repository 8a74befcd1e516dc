"""Round-3 extension operators, batch 123: Kruskal-Wallis rank sums +
session bounce rates by entry event type.

``kruskal_rank_sums`` — the exact integer core of the Kruskal-Wallis
H test "do event values differ across event types": global
average-tie ranks of every value (cents-quantized, the repo-wide
exact-integer contract for ``value``) and the per-type rank sums.
With ties sharing the average rank, every rank is a multiple of 1/2,
so ``ranksum2 = 2·Σ ranks`` is an exact int64.  The (type, cents)
count table is bounded by types × the cents domain (value range, not
row count); the global prefix-sum rank fold runs on the driver over
that bounded table — no global sort, the percent_rank_values
discipline.  Oracle: the same two-level rollup in SQL with window
prefix sums (2·avgrank = 2·below + tie + 1).

``session_bounce_rate`` — web-analytics bounce rates: events
sessionized per user by the 30-minute inactivity gap (the sessionize
contract), each session keyed by its ENTRY event type (first event by
(ts, event_id) — the deterministic tiebreak both engines replay);
per entry type: sessions, bounces (single-event sessions), total
events.  Hash-co-partitioned per-user map_groups (ordered-within-key
pattern), bounded types-sized final aggregate.  Oracle: LAG gap
numbering + FIRST_VALUE over the same (ts, event_id) order.

Reference anchors: relational analytics family (SURVEY.md §2.4);
siblings: percent_rank_values (bounded cents-domain ranking),
sessionize (gap rule), quality_auc (exact rank statistics via bounded
histograms), mode_event_type.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

SESSION_GAP_US = 30 * 60 * 1_000_000


# --------------------------------------------------------------------------
# kruskal_rank_sums
# --------------------------------------------------------------------------


def q_kruskal_rank_sums(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "value_cents": pc.cast(
                pc.round(pc.multiply(batch.column("value"), 100.0)),
                pa.int64()),
        })

    tc = grouped_aggregate(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "value_cents"],
        [("count", None, "n")],
    ).to_pandas()  # bounded: types × cents domain

    # global tie groups: per distinct cents value, rows strictly below
    g = (tc.groupby("value_cents")["n"].sum()
           .sort_index())
    tie = g.to_numpy().astype(np.int64)
    below = np.cumsum(tie) - tie
    # 2·(average tie rank, 1-based) = 2·below + tie + 1  — exact integer
    rank2 = {int(v): int(2 * b + t + 1)
             for v, b, t in zip(g.index.to_numpy(), below, tie)}

    types, ns, rs2 = [], [], []
    for et, grp in tc.groupby("event_type"):
        n = grp["n"].to_numpy().astype(np.int64)
        v = grp["value_cents"].to_numpy().astype(np.int64)
        types.append(et)
        ns.append(int(n.sum()))
        rs2.append(int(sum(int(c) * rank2[int(x)] for c, x in zip(n, v))))
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n": pa.array(ns, type=pa.int64()),
        "ranksum2": pa.array(rs2, type=pa.int64()),
    }))


SQL_KRUSKAL_RANK_SUMS = """
WITH tc AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS value_cents,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), g AS (
  SELECT value_cents, SUM(n) AS tie FROM tc GROUP BY 1
), ranked AS (
  SELECT value_cents,
         2 * (SUM(tie) OVER (ORDER BY value_cents
                             ROWS UNBOUNDED PRECEDING) - tie)
           + tie + 1 AS rank2
  FROM g
)
SELECT tc.event_type,
       CAST(SUM(tc.n) AS BIGINT) AS n,
       CAST(SUM(tc.n * r.rank2) AS BIGINT) AS ranksum2
FROM tc JOIN ranked r ON r.value_cents = tc.value_cents
GROUP BY tc.event_type
"""


# --------------------------------------------------------------------------
# session_bounce_rate
# --------------------------------------------------------------------------


def q_session_bounce_rate(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])

    def sessions(group: pa.Table) -> pa.Table:
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, ts))
        ts, et = ts[order], et[order]
        new_session = np.empty(len(ts), dtype=bool)
        new_session[0] = True
        np.greater(np.diff(ts), SESSION_GAP_US, out=new_session[1:])
        starts = np.flatnonzero(new_session)
        sizes = np.diff(np.append(starts, len(ts)))
        first_type = et[starts]
        t = pa.table({
            "entry_type": pa.array(first_type, type=pa.string()),
            "one": pa.array(np.ones(len(starts), dtype=np.int64)),
            "bounce": pa.array((sizes == 1).astype(np.int64)),
            "n_ev": pa.array(sizes.astype(np.int64)),
        })
        out = t.group_by(["entry_type"]).aggregate(
            [("one", "sum"), ("bounce", "sum"), ("n_ev", "sum")])
        return pa.table({
            "entry_type": out.column("entry_type"),
            "n_sessions": pc.cast(out.column("one_sum"), pa.int64()),
            "n_bounce": pc.cast(out.column("bounce_sum"), pa.int64()),
            "n_events": pc.cast(out.column("n_ev_sum"), pa.int64()),
        })

    per_user = group_map(ds, "user_id", lambda g: sessions(g.drop_columns(["user_id"])))
    return grouped_aggregate(
        per_user, ["entry_type"],
        [("sum", "n_sessions", "n_sessions"),
         ("sum", "n_bounce", "n_bounce"),
         ("sum", "n_events", "n_events")],
    )


SQL_SESSION_BOUNCE_RATE = """
WITH marked AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
              OR LAG(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
numbered AS (
  SELECT user_id, event_type, ts, event_id,
         SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked
),
sess AS (
  SELECT user_id, sid,
         FIRST(event_type ORDER BY ts, event_id) AS entry_type,
         COUNT(*) AS n_ev
  FROM numbered GROUP BY user_id, sid
)
SELECT entry_type,
       CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(SUM(CASE WHEN n_ev = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounce,
       CAST(SUM(n_ev) AS BIGINT) AS n_events
FROM sess GROUP BY entry_type
"""


def build_queries_ext123() -> dict:
    return {
        "kruskal_rank_sums": q_kruskal_rank_sums,
        "session_bounce_rate": q_session_bounce_rate,
    }


def build_oracles_ext123() -> dict:
    return {
        "kruskal_rank_sums": SQL_KRUSKAL_RANK_SUMS,
        "session_bounce_rate": SQL_SESSION_BOUNCE_RATE,
    }
