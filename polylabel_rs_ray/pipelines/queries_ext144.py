"""Round-3 extension operators, batch 144: session-level type
co-occurrence + Poisson control chart.

``session_type_pairs`` — market-basket co-occurrence at SESSION
granularity: for every unordered event-type pair (a < b), the number
of sessions (30-min gap rule, the sessionize contract) containing
BOTH types.  Per-user sessions are rebuilt inside the co-partitioned
map_groups (ordered-within-key, (ts, event_id) tiebreak); per session
the ≤C(5,2) distinct type pairs emit once, collapsing through the
bounded pair combine.  Oracle: session numbering + a distinct
(session, type) self-join.

``rate_control_chart`` — the c-chart (Poisson count control chart)
over the global hourly event counts, with the 3σ test kept in exact
integers: with H observed hours and S total events, hour h is OUT of
control iff

    (H·n_h − S)² > 9·S·H      (⇔ (n−μ)² > 9μ, both sides ×H²)

so no float mean or sqrt crosses the oracle.  Emits per-hour counts,
the squared deviation term, and the flag.  Bounded hourly histogram
via the map-side combine.  Oracle: the same integer inequality.

Reference anchors: sessionization + SPC families (SURVEY.md §2.4);
siblings: sessionize / session_bounce_rate (gap rule),
part_pair_counts (pair fan-out discipline), daily_cusum_changepoint
(scaled-integer deviation trick), anomalous_days.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

SESSION_GAP_US = 30 * 60 * 1_000_000
HOUR_US = 3_600_000_000


# --------------------------------------------------------------------------
# session_type_pairs
# --------------------------------------------------------------------------


def q_session_type_pairs(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])

    def pairs(group: pa.Table) -> pa.Table:
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, ts))
        ts, et = ts[order], et[order]
        new_session = np.empty(len(ts), dtype=bool)
        new_session[0] = True
        np.greater(np.diff(ts), SESSION_GAP_US, out=new_session[1:])
        sid = np.cumsum(new_session)
        ta, tb = [], []
        import itertools
        for s in range(1, int(sid[-1]) + 1):
            types = sorted(set(et[sid == s]))
            for a, b in itertools.combinations(types, 2):
                ta.append(a)
                tb.append(b)
        t = pa.table({
            "type_a": pa.array(ta, type=pa.string()),
            "type_b": pa.array(tb, type=pa.string()),
        })
        out = t.group_by(["type_a", "type_b"]).aggregate(
            [("type_a", "count")])
        return pa.table({
            "type_a": out.column("type_a"),
            "type_b": out.column("type_b"),
            "n_sessions": pc.cast(out.column("type_a_count"), pa.int64()),
        })

    per_user = group_map(ds, "user_id", lambda g: pairs(g.drop_columns(["user_id"])))
    return grouped_aggregate(
        per_user, ["type_a", "type_b"],
        [("sum", "n_sessions", "n_sessions")],
    )


SQL_SESSION_TYPE_PAIRS = """
WITH marked AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
              OR LAG(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
numbered AS (
  SELECT user_id, event_type,
         SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked
),
st AS (
  SELECT DISTINCT user_id, sid, event_type FROM numbered
)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n_sessions
FROM st a JOIN st b
  ON a.user_id = b.user_id AND a.sid = b.sid
 AND a.event_type < b.event_type
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# rate_control_chart
# --------------------------------------------------------------------------


def q_rate_control_chart(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def hourly(batch: pa.Table) -> pa.Table:
        h = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // HOUR_US
        t = pa.table({"hour": pa.array(h, type=pa.int64())})
        out = t.group_by(["hour"]).aggregate([("hour", "count")])
        return pa.table({
            "hour": out.column("hour"),
            "n": pc.cast(out.column("hour_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(hourly, batch_format="pyarrow", zero_copy_batch=True),
        ["hour"], [("sum", "n", "n")],
    ).to_pandas().sort_values("hour")  # bounded: observed hours

    h = hist["hour"].to_numpy().astype(np.int64)
    n = hist["n"].to_numpy().astype(np.int64)
    H = len(n)
    S = int(n.sum())
    dev = H * n - S
    flag = (dev * dev > 9 * S * H).astype(np.int64)
    return ray.data.from_arrow(pa.table({
        "hour": pa.array(h, type=pa.int64()),
        "n": pa.array(n, type=pa.int64()),
        "dev_sq": pa.array(dev * dev, type=pa.int64()),
        "out_of_control": pa.array(flag, type=pa.int64()),
    }))


SQL_RATE_CONTROL_CHART = f"""
WITH hourly AS (
  SELECT epoch_us(ts) // {HOUR_US} AS hour,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1
), params AS (
  SELECT COUNT(*) AS h, SUM(n) AS s FROM hourly
)
SELECT hour, n,
       CAST(((SELECT h FROM params) * n - (SELECT s FROM params))
            * ((SELECT h FROM params) * n - (SELECT s FROM params))
            AS BIGINT) AS dev_sq,
       CAST(CASE WHEN ((SELECT h FROM params) * n - (SELECT s FROM params))
                      * ((SELECT h FROM params) * n
                         - (SELECT s FROM params))
                      > 9 * (SELECT s FROM params) * (SELECT h FROM params)
                 THEN 1 ELSE 0 END AS BIGINT) AS out_of_control
FROM hourly
"""


def build_queries_ext144() -> dict:
    return {
        "session_type_pairs": q_session_type_pairs,
        "rate_control_chart": q_rate_control_chart,
    }


def build_oracles_ext144() -> dict:
    return {
        "session_type_pairs": SQL_SESSION_TYPE_PAIRS,
        "rate_control_chart": SQL_RATE_CONTROL_CHART,
    }
