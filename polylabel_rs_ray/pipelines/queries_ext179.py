"""Round-3 extension operators, batch 179: optimal BST cost table +
hourly transport plan.

``optimal_bst_table`` — Knuth's classic optimal binary search tree DP
over the five event types (keys in lexicographic order, weights =
exact global occurrence counts): every interval state ``cost(i, j) =
W(i, j) + min_k cost(i, k−1) + cost(k+1, j)`` is emitted — the FULL
table (15 states), tie-break-free by construction (the tile_seam_dp
contract).  All integer.  Engine: the distributed type-count reduce
feeds a bounded interval DP.  Oracle: machine-generated chained CTEs
by interval length, each state a MIN over explicit root choices into
the previously materialized lengths.

``hourly_transport_plan`` — the optimal monotone transport (earth-
mover) plan between the weekday and weekend hour-of-day activity
histograms, kept EXACT by cross-scaling the masses (weekday counts ×
weekend total vs weekend counts × weekday total — equal totals, no
normalization divides): for cumulative masses A_i, B_j the
north-west-corner coupling has the closed form ``mass(i, j) =
max(0, min(A_i, B_j) − max(A_{i−1}, B_{j−1}))``, and because both
marginals are sorted by the same hour axis this greedy coupling IS
the W1-optimal monotone plan.  The engine runs the two-pointer
greedy (sequential allocation over 48 pointers); the oracle evaluates
the closed form over all hour pairs — two different constructions of
the same unique plan.  Emitted: every nonzero cell (src_hour,
dst_hour, mass).

Reference anchors: DP + distribution-transport families (SURVEY.md
§2.4); siblings: vopt_histogram_dp / tile_seam_dp (full-DP-table
contracts), doclen_emd_matrix (denominator-cleared EMD), dow_hour_
heatmap (hour-of-day machinery).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BST_TYPES = ("click", "error", "purchase", "signup", "view")
WEEKEND_MODS = (2, 3)
HOURS = 24


# --------------------------------------------------------------------------
# optimal_bst_table
# --------------------------------------------------------------------------


def q_optimal_bst_table(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    cnt = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], [("sum", "one", "n")],
    ).to_pandas().set_index("event_type")["n"]
    k = len(BST_TYPES)
    w = [int(cnt.get(t, 0)) for t in BST_TYPES]
    pref = [0]
    for x in w:
        pref.append(pref[-1] + x)

    def W(i, j):
        return pref[j + 1] - pref[i]

    cost = {}
    for i in range(k):
        cost[(i, i - 1)] = 0
    cost[(k, k - 1)] = 0
    for ln in range(1, k + 1):
        for i in range(0, k - ln + 1):
            j = i + ln - 1
            best = min(cost.get((i, r - 1), 0) + cost.get((r + 1, j), 0)
                       for r in range(i, j + 1))
            cost[(i, j)] = W(i, j) + best
    ii, jj, cc = [], [], []
    for i in range(k):
        for j in range(i, k):
            ii.append(i)
            jj.append(j)
            cc.append(cost[(i, j)])
    return ray.data.from_arrow(pa.table({
        "i": pa.array(ii, type=pa.int64()),
        "j": pa.array(jj, type=pa.int64()),
        "cost": pa.array(cc, type=pa.int64()),
    }))


def _sql_optimal_bst_table() -> str:
    k = len(BST_TYPES)
    wcols = ", ".join(
        f"CAST(COALESCE(SUM(CASE WHEN event_type = '{t}' THEN 1 END), 0) "
        f"AS BIGINT) AS w_{u}" for u, t in enumerate(BST_TYPES))
    head = f"""
WITH w AS MATERIALIZED (
  SELECT {wcols} FROM events
)"""
    parts = [head]
    names = {}
    for ln in range(1, k + 1):
        for i in range(0, k - ln + 1):
            j = i + ln - 1
            wsum = " + ".join(f"w_{t}" for t in range(i, j + 1))
            choices = []
            for r in range(i, j + 1):
                left = names.get((i, r - 1))
                right = names.get((r + 1, j))
                lexpr = f"(SELECT c FROM {left})" if left else "0"
                rexpr = f"(SELECT c FROM {right})" if right else "0"
                choices.append(f"({lexpr}) + ({rexpr})")
            least = choices[0] if len(choices) == 1 else \
                "LEAST(" + ", ".join(choices) + ")"
            nm = f"c_{i}_{j}"
            names[(i, j)] = nm
            parts.append(f""",
{nm} AS MATERIALIZED (
  SELECT ({wsum}) + {least} AS c FROM w
)""")
    sel = " UNION ALL ".join(
        f"SELECT {i} AS i, {j} AS j, (SELECT c FROM c_{i}_{j}) AS cost"
        for i in range(k) for j in range(i, k))
    parts.append(f"""
SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
       CAST(cost AS BIGINT) AS cost
FROM ({sel})""")
    return "".join(parts)


# --------------------------------------------------------------------------
# hourly_transport_plan
# --------------------------------------------------------------------------


def q_hourly_transport_plan(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        day = ts // 86_400_000_000
        hour = (ts // 3_600_000_000) % 24
        wknd = np.isin(day % 7, WEEKEND_MODS).astype(np.int64)
        return pa.table({
            "is_weekend": pa.array(wknd, type=pa.int64()),
            "hour": pa.array(hour, type=pa.int64()),
            "one": pa.array(np.ones(len(ts), dtype=np.int64)),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["is_weekend", "hour"], [("sum", "one", "n")],
    ).to_pandas()  # bounded 2x24
    wd = np.zeros(HOURS, dtype=np.int64)
    we = np.zeros(HOURS, dtype=np.int64)
    for r in hist.itertuples():
        (we if int(r.is_weekend) else wd)[int(r.hour)] = int(r.n)
    tot_wd, tot_we = int(wd.sum()), int(we.sum())
    a = wd * tot_we  # cross-scaled: equal totals, exact integers
    b = we * tot_wd
    assert a.sum() == b.sum()
    # two-pointer NW-corner greedy
    src, dst, mass = [], [], []
    i = j = 0
    ra, rb = int(a[0]), int(b[0])
    while i < HOURS and j < HOURS:
        m = min(ra, rb)
        if m > 0:
            src.append(i)
            dst.append(j)
            mass.append(m)
        ra -= m
        rb -= m
        if ra == 0:
            i += 1
            ra = int(a[i]) if i < HOURS else 0
        if rb == 0:
            j += 1
            rb = int(b[j]) if j < HOURS else 0
    return ray.data.from_arrow(pa.table({
        "src_hour": pa.array(src, type=pa.int64()),
        "dst_hour": pa.array(dst, type=pa.int64()),
        "mass": pa.array(mass, type=pa.int64()),
    }))


SQL_HOURLY_TRANSPORT_PLAN = f"""
WITH ev AS MATERIALIZED (
  SELECT (epoch_us(ts) // 3600000000) % 24 AS hour,
         CASE WHEN (epoch_us(ts) // 86400000000) % 7
                   IN {WEEKEND_MODS} THEN 1 ELSE 0 END AS wk
  FROM events
), hrs AS (SELECT range AS hour FROM range(0, {HOURS})
), hist AS MATERIALIZED (
  SELECT h.hour,
         CAST(COALESCE(SUM(CASE WHEN e.wk = 0 THEN 1 END), 0) AS BIGINT)
           AS wd,
         CAST(COALESCE(SUM(CASE WHEN e.wk = 1 THEN 1 END), 0) AS BIGINT)
           AS we
  FROM hrs h LEFT JOIN ev e ON e.hour = h.hour
  GROUP BY 1
), tot AS (SELECT SUM(wd) AS twd, SUM(we) AS twe FROM hist
), cum AS MATERIALIZED (
  SELECT hour,
         SUM(wd * t.twe) OVER (ORDER BY hour) AS ca,
         SUM(wd * t.twe) OVER (ORDER BY hour) - wd * t.twe AS ca0,
         SUM(we * t.twd) OVER (ORDER BY hour) AS cb,
         SUM(we * t.twd) OVER (ORDER BY hour) - we * t.twd AS cb0
  FROM hist, tot t
)
SELECT a.hour AS src_hour, b.hour AS dst_hour,
       CAST(LEAST(a.ca, b.cb) - GREATEST(a.ca0, b.cb0) AS BIGINT) AS mass
FROM cum a, cum b
WHERE LEAST(a.ca, b.cb) - GREATEST(a.ca0, b.cb0) > 0
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext179():
    return {
        "optimal_bst_table": q_optimal_bst_table,
        "hourly_transport_plan": q_hourly_transport_plan,
    }


def build_oracles_ext179():
    return {
        "optimal_bst_table": _sql_optimal_bst_table(),
        "hourly_transport_plan": SQL_HOURLY_TRANSPORT_PLAN,
    }
