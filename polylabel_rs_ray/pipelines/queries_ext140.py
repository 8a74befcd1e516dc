"""Round-3 extension operators, batch 140: median-of-medians quality
audit + Simpson's-paradox covariance slices.

``median_of_medians_audit`` — the approximation-quality genre (the
bloom_fp_audit discipline): the classic distributed-median shortcut
"median of per-shard medians" evaluated EXACTLY against the true
median of event value cents.  Shards are deterministic
(``event_id % 32`` — not Ray blocks, so the oracle replays them), per
-shard lower medians and the final lower median come from bounded
(shard, cents) histograms; the audit reports the exact global median,
the MoM value, the MoM's global rank (count of strictly-smaller
values) and its absolute rank error from the true lower-median index
(N−1)//2.  One summary row, all int64.

``simpsons_paradox_slices`` — the grouped-vs-pooled covariance sign
audit (Simpson's paradox detector) for (quantity, price-cents) over
lineitem sliced by supplier nation: per nation the exact covariance
numerator ``n·Σxy − Σx·Σy`` and its sign, plus the pooled ALL row.
The pooled product overflows int64 at scale, so the fold runs in
Python big ints from the bounded per-nation partials and the column
is emitted as a DECIMAL STRING (the ols_price_model convention;
DuckDB computes in HUGEINT and casts to VARCHAR).

Reference anchors: statistics + audit families (SURVEY.md §2.4);
siblings: bloom_fp_audit / kmv_distinct_sketch (engine-internals
audits), price_discount_corr (exact moment sums), ols_price_model
(HUGEINT/decimal-string convention), median_value_per_type.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


MOM_SHARDS = 32


# --------------------------------------------------------------------------
# median_of_medians_audit
# --------------------------------------------------------------------------


def q_median_of_medians_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        v = pc.cast(pc.round(pc.multiply(batch.column("value"), 100.0)),
                    pa.int64()).to_numpy()
        t = pa.table({
            "shard": pa.array(eid % MOM_SHARDS, type=pa.int64()),
            "c": pa.array(v, type=pa.int64()),
        })
        out = t.group_by(["shard", "c"]).aggregate([("c", "count")])
        return pa.table({
            "shard": out.column("shard"),
            "c": out.column("c"),
            "n": pc.cast(out.column("c_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["shard", "c"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: shards × cents domain

    def lower_median(cs, ns):
        order = np.argsort(cs)
        cs, ns = cs[order], ns[order]
        cum = np.cumsum(ns)
        idx = (int(cum[-1]) - 1) // 2
        return int(cs[np.searchsorted(cum, idx + 1)])

    meds = []
    for _s, g in hist.groupby("shard"):
        meds.append(lower_median(g["c"].to_numpy().astype(np.int64),
                                 g["n"].to_numpy().astype(np.int64)))
    meds = np.sort(np.array(meds, dtype=np.int64))
    mom = int(meds[(len(meds) - 1) // 2])

    gl = hist.groupby("c")["n"].sum().sort_index()
    cs = gl.index.to_numpy().astype(np.int64)
    ns = gl.to_numpy().astype(np.int64)
    total = int(ns.sum())
    exact = lower_median(cs, ns)
    rank_mom = int(ns[cs < mom].sum())
    true_idx = (total - 1) // 2
    return ray.data.from_arrow(pa.table({
        "exact_median_cents": pa.array([exact], type=pa.int64()),
        "mom_cents": pa.array([mom], type=pa.int64()),
        "mom_rank": pa.array([rank_mom], type=pa.int64()),
        "abs_rank_err": pa.array([abs(rank_mom - true_idx)],
                                 type=pa.int64()),
        "n_values": pa.array([total], type=pa.int64()),
    }))


SQL_MEDIAN_OF_MEDIANS_AUDIT = f"""
WITH v AS (
  SELECT event_id % {MOM_SHARDS} AS shard,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
), shard_med AS (
  SELECT shard, c AS m FROM (
    SELECT shard, c,
           ROW_NUMBER() OVER (PARTITION BY shard ORDER BY c) AS rn,
           COUNT(*) OVER (PARTITION BY shard) AS d
    FROM v
  ) WHERE rn = (d + 1) // 2
), mom AS (
  SELECT m FROM (
    SELECT m, ROW_NUMBER() OVER (ORDER BY m) AS rn, COUNT(*) OVER () AS d
    FROM shard_med
  ) WHERE rn = (d + 1) // 2
), exact AS (
  SELECT c AS m FROM (
    SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn, COUNT(*) OVER () AS d
    FROM v
  ) WHERE rn = (d + 1) // 2
)
SELECT CAST((SELECT m FROM exact) AS BIGINT) AS exact_median_cents,
       CAST((SELECT m FROM mom) AS BIGINT) AS mom_cents,
       CAST((SELECT COUNT(*) FROM v WHERE c < (SELECT m FROM mom))
            AS BIGINT) AS mom_rank,
       CAST(ABS((SELECT COUNT(*) FROM v WHERE c < (SELECT m FROM mom))
                - ((SELECT COUNT(*) FROM v) - 1) // 2) AS BIGINT)
           AS abs_rank_err,
       CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_values
"""


# --------------------------------------------------------------------------
# simpsons_paradox_slices
# --------------------------------------------------------------------------


def q_simpsons_paradox_slices(sf_dir: str):
    from .agg import grouped_aggregate
    from .factjoin import attach_fact_value

    import ray

    def partials(batch: pa.Table) -> pa.Table:
        x = batch.column("l_quantity").to_numpy().astype(np.int64)
        y = np.round(
            batch.column("l_extendedprice").to_numpy() * 100.0).astype(
            np.int64)
        return pa.table({
            "key": pc.cast(batch.column("l_suppkey"), pa.int64()),
            "one": pa.array(np.ones(len(x), dtype=np.int64)),
            "sx": pa.array(x, type=pa.int64()),
            "sy": pa.array(y, type=pa.int64()),
            "sxy": pa.array(x * y, type=pa.int64()),
        })

    # supplier scales at 10k rows/sf — the suppkey -> nation attach goes
    # through the broadcast fact join
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_quantity", "l_extendedprice"],
    ).map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
    attached = attach_fact_value(
        sf_dir, "supplier", "s_suppkey", "s_nationkey", ds,
        ["one", "sx", "sy", "sxy"], out_col="nation",
    )

    agg = grouped_aggregate(
        attached,
        ["nation"],
        [("sum", "one", "n"), ("sum", "sx", "sx"), ("sum", "sy", "sy"),
         ("sum", "sxy", "sxy")],
    ).to_pandas()  # bounded: one row per nation

    rows = []
    tot = {"n": 0, "sx": 0, "sy": 0, "sxy": 0}
    for r in agg.itertuples():
        n, sx, sy, sxy = int(r.n), int(r.sx), int(r.sy), int(r.sxy)
        cov = n * sxy - sx * sy  # Python big int — never overflows
        rows.append((str(int(r.nation)), n, str(cov),
                     (cov > 0) - (cov < 0)))
        for k, v in (("n", n), ("sx", sx), ("sy", sy), ("sxy", sxy)):
            tot[k] += v
    pooled = tot["n"] * tot["sxy"] - tot["sx"] * tot["sy"]
    rows.append(("ALL", tot["n"], str(pooled),
                 (pooled > 0) - (pooled < 0)))
    return ray.data.from_arrow(pa.table({
        "slice_key": pa.array([r[0] for r in rows], type=pa.string()),
        "n": pa.array([r[1] for r in rows], type=pa.int64()),
        "cov_num": pa.array([r[2] for r in rows], type=pa.string()),
        "cov_sign": pa.array([r[3] for r in rows], type=pa.int64()),
    }))


SQL_SIMPSONS_PARADOX_SLICES = """
WITH base AS (
  SELECT s.s_nationkey AS nation,
         CAST(l.l_quantity AS BIGINT) AS x,
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS y
  FROM lineitem l JOIN supplier s ON s.s_suppkey = l.l_suppkey
), g AS (
  SELECT CAST(nation AS VARCHAR) AS slice_key,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(COUNT(*) AS HUGEINT) * SUM(CAST(x AS HUGEINT) * y)
           - SUM(CAST(x AS HUGEINT)) * SUM(CAST(y AS HUGEINT)) AS cov
  FROM base GROUP BY nation
  UNION ALL
  SELECT 'ALL',
         CAST(COUNT(*) AS BIGINT),
         CAST(COUNT(*) AS HUGEINT) * SUM(CAST(x AS HUGEINT) * y)
           - SUM(CAST(x AS HUGEINT)) * SUM(CAST(y AS HUGEINT))
  FROM base
)
SELECT slice_key, n,
       CAST(cov AS VARCHAR) AS cov_num,
       CAST(SIGN(cov) AS BIGINT) AS cov_sign
FROM g
"""


def build_queries_ext140() -> dict:
    return {
        "median_of_medians_audit": q_median_of_medians_audit,
        "simpsons_paradox_slices": q_simpsons_paradox_slices,
    }


def build_oracles_ext140() -> dict:
    return {
        "median_of_medians_audit": SQL_MEDIAN_OF_MEDIANS_AUDIT,
        "simpsons_paradox_slices": SQL_SIMPSONS_PARADOX_SLICES,
    }
