"""Round-3 extension operators, batch 152: local clustering coefficients
+ daily revenue autocorrelation moments.

``local_clustering_coeff`` — the per-node companion of ``triangle_parts``
(ext28): for the TOP_K=20 highest-degree parts of the co-purchase graph
(ties broken by part_key ascending, the deterministic top-k rule), the
exact triangle count ``n_tri`` = #edges among the node's neighbors, the
possible count ``deg·(deg−1)/2``, and the local clustering coefficient
as ONE float division (bit-exact across engines).  Distributed shape:
the distinct edge list is the ``part_pair_counts`` pipeline; degrees are
one hash aggregate over unpivoted endpoints; the 20 neighbor SETS
(bounded: 20 × max-degree ints) are collected from one endpoint-filtered
streamed pass and broadcast via ``ray.put``; closure counting is then a
stateless zero-shuffle ``map_batches`` over the edge Dataset — each
batch tests both endpoints' membership in each of the 20 sets (20
vectorized ``np.isin`` probes) and emits bounded per-node partials.  At
10^8+ edges the documented scale path swaps the broadcast sets for a
neighbor-hash semi-join, exactly like ext28's wedge-join note.

``daily_revenue_acf`` — autocovariance moments of the daily order
revenue series at calendar-day lags 1..7: for each lag L, the pair count
over observed day pairs (d, d+L) plus the exact HUGEINT-scale moment
sums (Σx, Σy, Σxy, Σx², Σy²) emitted as decimal strings (daily revenue
~1.5e9 cents makes Σxy ≈ 6e21 > int64 — the ols_price_model pattern).
The engine folds over the BOUNDED observed-day histogram (2.4k days)
with Python ints; the oracle replays via a HUGEINT self-join on day+L.
Downstream, r_L is a single rational of these five sums.

Reference anchors: graph + series families (SURVEY.md §2.4); siblings:
triangle_parts (oriented closure), user_lag1_moments (exact lag
moments), ols_price_model (decimal-string HUGEINT emission).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

TOP_K = 20
ACF_LAGS = (1, 2, 3, 4, 5, 6, 7)


# --------------------------------------------------------------------------
# local_clustering_coeff
# --------------------------------------------------------------------------


def q_local_clustering_coeff(sf_dir: str):
    from .agg import grouped_aggregate
    from .queries import q_part_pair_counts

    import ray
    edges = q_part_pair_counts(sf_dir).select_columns(["part_a", "part_b"])

    # degrees: one hash aggregate over unpivoted endpoints
    def endpoints(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        return pa.table({
            "part_key": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "one": pa.array(np.ones(len(a) + len(b), dtype=np.int64)),
        })

    deg = grouped_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["part_key"], [("sum", "one", "deg")],
    ).to_pandas()  # bounded: one row per part in the graph
    deg = deg.sort_values(["deg", "part_key"],
                          ascending=[False, True]).head(TOP_K)
    top = deg["part_key"].to_numpy().astype(np.int64)
    top_deg = deg["deg"].to_numpy().astype(np.int64)

    # neighbor sets of the top nodes: endpoint-filtered pass (bounded
    # result: sum of top degrees rows), then broadcast
    top_sorted = np.sort(top)

    def incident(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        ha = np.isin(a, top_sorted)
        hb = np.isin(b, top_sorted)
        v = np.concatenate([a[ha], b[hb]])
        o = np.concatenate([b[ha], a[hb]])
        return pa.table({"v": pa.array(v, type=pa.int64()),
                         "o": pa.array(o, type=pa.int64())})

    inc = edges.map_batches(incident, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
    nbrs = {int(v): np.sort(g["o"].to_numpy().astype(np.int64))
            for v, g in inc.groupby("v")}
    nbr_list = [nbrs.get(int(v), np.empty(0, np.int64)) for v in top]
    sets_ref = ray.put((top, nbr_list))

    # closure counting: stateless zero-shuffle pass over the edges
    def closure(batch: pa.Table) -> pa.Table:
        tv, nl = ray.get(sets_ref)
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        cnt = np.empty(len(tv), dtype=np.int64)
        for i, ns in enumerate(nl):
            cnt[i] = int(np.count_nonzero(
                np.isin(a, ns) & np.isin(b, ns)))
        return pa.table({
            "part_key": pa.array(tv, type=pa.int64()),
            "n": pa.array(cnt, type=pa.int64()),
        })

    tri = grouped_aggregate(
        edges.map_batches(closure, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["part_key"], [("sum", "n", "n_tri")],
    ).to_pandas().set_index("part_key")["n_tri"]

    n_tri = np.array([int(tri.get(int(v), 0)) for v in top], dtype=np.int64)
    n_possible = top_deg * (top_deg - 1) // 2
    return ray.data.from_arrow(pa.table({
        "part_key": pa.array(top, type=pa.int64()),
        "deg": pa.array(top_deg, type=pa.int64()),
        "n_tri": pa.array(n_tri, type=pa.int64()),
        "n_possible": pa.array(n_possible, type=pa.int64()),
        "coeff": pa.array(
            n_tri.astype(np.float64) / n_possible.astype(np.float64),
            type=pa.float64()),
    }))


SQL_LOCAL_CLUSTERING_COEFF = f"""
WITH pairs AS (
    SELECT a.l_partkey AS pa, b.l_partkey AS pb
    FROM lineitem a JOIN lineitem b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    GROUP BY 1, 2
),
nb AS (
    SELECT pa AS v, pb AS o FROM pairs
    UNION ALL SELECT pb, pa FROM pairs
),
deg AS (
    SELECT v, COUNT(*) AS deg FROM nb GROUP BY 1
),
top AS (
    SELECT v, deg FROM (
        SELECT v, deg,
               ROW_NUMBER() OVER (ORDER BY deg DESC, v ASC) AS rn
        FROM deg
    ) WHERE rn <= {TOP_K}
),
tri AS (
    SELECT t.v, COUNT(*) AS n_tri
    FROM top t
    JOIN nb n1 ON n1.v = t.v
    JOIN nb n2 ON n2.v = t.v
    JOIN pairs p ON p.pa = n1.o AND p.pb = n2.o
    GROUP BY 1
)
SELECT CAST(t.v AS BIGINT) AS part_key,
       CAST(t.deg AS BIGINT) AS deg,
       CAST(COALESCE(tri.n_tri, 0) AS BIGINT) AS n_tri,
       CAST(t.deg * (t.deg - 1) // 2 AS BIGINT) AS n_possible,
       CAST(COALESCE(tri.n_tri, 0) AS DOUBLE)
           / CAST(t.deg * (t.deg - 1) // 2 AS DOUBLE) AS coeff
FROM top t LEFT JOIN tri ON tri.v = t.v
"""


# --------------------------------------------------------------------------
# daily_revenue_acf
# --------------------------------------------------------------------------


def q_daily_revenue_acf(sf_dir: str):
    from .queries_ext133 import _daily_order_revenue

    import ray
    days, rev = _daily_order_revenue(sf_dir)
    # Python-int fold over the bounded observed-day series: Σxy at these
    # magnitudes (~6e21) exceeds int64, so the driver fold — like the SQL
    # twin — runs in arbitrary precision and emits decimal strings
    day_list = [int(d) for d in days]
    rev_of = {int(d): int(r) for d, r in zip(days, rev)}
    lags, nps, sxs, sys_, sxys, sx2s, sy2s = [], [], [], [], [], [], []
    for lag in ACF_LAGS:
        n = sx = sy = sxy = sx2 = sy2 = 0
        for d in day_list:
            if d + lag in rev_of:
                x, y = rev_of[d], rev_of[d + lag]
                n += 1
                sx += x
                sy += y
                sxy += x * y
                sx2 += x * x
                sy2 += y * y
        lags.append(lag)
        nps.append(n)
        sxs.append(str(sx))
        sys_.append(str(sy))
        sxys.append(str(sxy))
        sx2s.append(str(sx2))
        sy2s.append(str(sy2))
    return ray.data.from_arrow(pa.table({
        "lag": pa.array(lags, type=pa.int64()),
        "n_pairs": pa.array(nps, type=pa.int64()),
        "sum_x": pa.array(sxs, type=pa.string()),
        "sum_y": pa.array(sys_, type=pa.string()),
        "sum_xy": pa.array(sxys, type=pa.string()),
        "sum_x2": pa.array(sx2s, type=pa.string()),
        "sum_y2": pa.array(sy2s, type=pa.string()),
    }))


SQL_DAILY_REVENUE_ACF = """
WITH daily AS (
    SELECT epoch_us(o_orderdate) // 86400000000 AS day,
           SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS rev
    FROM orders GROUP BY 1
),
lagged AS (
    SELECT l.lag, a.rev AS x, b.rev AS y
    FROM (SELECT UNNEST([1,2,3,4,5,6,7]) AS lag) l
    JOIN daily a ON TRUE
    JOIN daily b ON b.day = a.day + l.lag
)
SELECT CAST(lag AS BIGINT) AS lag,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(CAST(x AS HUGEINT)) AS VARCHAR) AS sum_x,
       CAST(SUM(CAST(y AS HUGEINT)) AS VARCHAR) AS sum_y,
       CAST(SUM(CAST(x AS HUGEINT) * CAST(y AS HUGEINT)) AS VARCHAR)
           AS sum_xy,
       CAST(SUM(CAST(x AS HUGEINT) * CAST(x AS HUGEINT)) AS VARCHAR)
           AS sum_x2,
       CAST(SUM(CAST(y AS HUGEINT) * CAST(y AS HUGEINT)) AS VARCHAR)
           AS sum_y2
FROM lagged GROUP BY 1
"""


def build_queries_ext152() -> dict:
    return {
        "local_clustering_coeff": q_local_clustering_coeff,
        "daily_revenue_acf": q_daily_revenue_acf,
    }


def build_oracles_ext152() -> dict:
    return {
        "local_clustering_coeff": SQL_LOCAL_CLUSTERING_COEFF,
        "daily_revenue_acf": SQL_DAILY_REVENUE_ACF,
    }
