"""Round-3 extension operators, batch 193: bipartite joint-degree
matrix + longest above-median run.

``bipartite_joint_degrees`` — the joint degree distribution of the
part↔supplier bipartite graph (the degree-correlation fingerprint of
network science, computed edge-wise): for every DISTINCT (part,
supplier) edge, the exact (part degree, supplier degree) pair, with
edge counts per pair — raw degrees, not log buckets: this corpus'
degrees are near-uniform and bucketing collapses the matrix to a
point mass (measured), while the raw matrix keeps the spread.  Distributed shape:
the distinct-edge reduce runs on the high-cardinality hash exchange
(edges ~ rows); both degree tables are bounded by their key domains
and broadcast (ray.put, sorted-key searchsorted lookups) into a
stateless attach pass; the bounded degree-pair matrix reduces
through the map-side combine.  Oracle: the same three joins
expressed directly in SQL.

``above_median_longest_run`` — the hot-streak statistic: the number
of days with revenue strictly above the all-days median (med2 =
doubled interpolated median, integer) and the longest consecutive-DAY
run of such days (calendar gaps break runs).  Bounded daily series:
the median is an exact order statistic, the runs a vectorized
boundary count.  Oracle: gaps-and-islands over the filtered day
sequence with the same doubled-median predicate.

Reference anchors: graph + time-series families (SURVEY.md §2.4);
siblings: degree_histogram / part_graph_assortativity (degree
machinery), daily_revenue_sliding_median (the median convention),
type_streaks / hourly_islands_per_type (runs).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# bipartite_joint_degrees
# --------------------------------------------------------------------------


def q_bipartite_joint_degrees(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "part_key": batch.column("l_partkey"),
            "supp_key": batch.column("l_suppkey"),
        })

    edges = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_suppkey"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["part_key", "supp_key"], [("count", None, "cnt")],
    ).materialize()  # THREE consumers (pdeg, sdeg, bucketize): without
    # this the lineitem edge exchange executes three times; the distinct
    # (part, supplier) edge table is bounded by the key domains

    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.table({
            "part_key": batch.column("part_key"),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    pdeg = grouped_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["part_key"], [("sum", "one", "deg")],
    ).to_pandas()  # bounded: part domain

    def sendpoints(batch: pa.Table) -> pa.Table:
        return pa.table({
            "supp_key": batch.column("supp_key"),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    sdeg = grouped_aggregate(
        edges.map_batches(sendpoints, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["supp_key"], [("sum", "one", "deg")],
    ).to_pandas()  # bounded: supplier domain

    pk = pdeg["part_key"].to_numpy().astype(np.int64)
    pd_ = pdeg["deg"].to_numpy().astype(np.int64)
    po = np.argsort(pk)
    pk, pd_ = pk[po], pd_[po]
    sk = sdeg["supp_key"].to_numpy().astype(np.int64)
    sd_ = sdeg["deg"].to_numpy().astype(np.int64)
    so = np.argsort(sk)
    sk, sd_ = sk[so], sd_[so]
    maps = ray.put((pk, pd_, sk, sd_))

    def bucketize(batch: pa.Table) -> pa.Table:
        pkk, pdd, skk, sdd = ray.get(maps)
        p = batch.column("part_key").to_numpy().astype(np.int64)
        s = batch.column("supp_key").to_numpy().astype(np.int64)
        dp = pdd[np.searchsorted(pkk, p)]
        ds = sdd[np.searchsorted(skk, s)]
        t = pa.table({
            "part_deg_b": pa.array(dp, type=pa.int64()),
            "supp_deg_b": pa.array(ds, type=pa.int64()),
            "one": pa.array(np.ones(len(p), dtype=np.int64)),
        })
        g = t.group_by(["part_deg_b", "supp_deg_b"]).aggregate(
            [("one", "sum")])
        return pa.table({
            "part_deg_b": g.column("part_deg_b"),
            "supp_deg_b": g.column("supp_deg_b"),
            "n_edges": pc.cast(g.column("one_sum"), pa.int64()),
        })

    return grouped_aggregate(
        edges.map_batches(bucketize, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["part_deg_b", "supp_deg_b"], [("sum", "n_edges", "n_edges")],
    )


SQL_BIPARTITE_JOINT_DEGREES = """
WITH edges AS MATERIALIZED (
  SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
), pdeg AS MATERIALIZED (
  SELECT p, COUNT(*) AS d FROM edges GROUP BY 1
), sdeg AS MATERIALIZED (
  SELECT s, COUNT(*) AS d FROM edges GROUP BY 1
)
SELECT CAST(pd.d AS BIGINT) AS part_deg_b,
       CAST(sd.d AS BIGINT) AS supp_deg_b,
       CAST(COUNT(*) AS BIGINT) AS n_edges
FROM edges e
JOIN pdeg pd ON pd.p = e.p
JOIN sdeg sd ON sd.s = e.s
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# above_median_longest_run
# --------------------------------------------------------------------------


def q_above_median_longest_run(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    daily = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "cents", "cents")],
    ).to_pandas().sort_values("day").reset_index(drop=True)
    day = daily["day"].to_numpy().astype(np.int64)
    cents = daily["cents"].to_numpy().astype(np.int64)
    n = len(cents)
    w = np.sort(cents)
    med2 = int(w[(n - 1) // 2]) + int(w[n // 2])
    above = 2 * cents > med2
    ad = day[above]
    if len(ad):
        brk = np.r_[True, np.diff(ad) != 1]
        run_id = np.cumsum(brk)
        longest = int(np.bincount(run_id).max())
    else:
        longest = 0
    return ray.data.from_arrow(pa.table({
        "med2": pa.array([med2], type=pa.int64()),
        "n_days_above": pa.array([int(above.sum())], type=pa.int64()),
        "longest_run": pa.array([longest], type=pa.int64()),
    }))


SQL_ABOVE_MEDIAN_LONGEST_RUN = """
WITH daily AS MATERIALIZED (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT)
           AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM daily_src GROUP BY 1
), med AS MATERIALIZED (
  SELECT CAST(ROUND(2 * MEDIAN(cents)) AS BIGINT) AS med2 FROM daily
), above AS MATERIALIZED (
  SELECT d.day FROM daily d, med m WHERE 2 * d.cents > m.med2
), runs AS (
  SELECT day, day - ROW_NUMBER() OVER (ORDER BY day) AS grp FROM above
)
SELECT (SELECT med2 FROM med) AS med2,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM above) AS n_days_above,
       CAST(COALESCE(MAX(cnt), 0) AS BIGINT) AS longest_run
FROM (SELECT grp, COUNT(*) AS cnt FROM runs GROUP BY 1)
""".replace("daily_src", "orders")


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext193():
    return {
        "bipartite_joint_degrees": q_bipartite_joint_degrees,
        "above_median_longest_run": q_above_median_longest_run,
    }


def build_oracles_ext193():
    return {
        "bipartite_joint_degrees": SQL_BIPARTITE_JOINT_DEGREES,
        "above_median_longest_run": SQL_ABOVE_MEDIAN_LONGEST_RUN,
    }
