"""Round-3 extension operators, batch 134: balance-decile order stats +
hourly activity islands.

``balance_decile_order_stats`` — the quantile-bucket JOIN (the "lift
table" shape of marketing analytics): customers are bucketed by the
nine exact deciles of account balance (cents-quantized, lower-quantile
convention ``(n−1)·j//10``; bucket = #boundaries ≤ value, so ties
split deterministically), and orders roll up per bucket: customers,
orders, exact revenue cents.  Shape: the decile boundaries come from
a DISTRIBUTED cents histogram (bounded by the 1.1M-value acctbal
domain, never O(customers)); the customer balance attaches to orders
through the broadcast fact join (pipelines/factjoin.attach_fact_value);
one hash aggregate over orders.  Oracle: the same ROW_NUMBER boundary
extraction + a boundary-count join.

``hourly_islands_per_type`` — gaps-and-islands on the hour lattice:
per event type, the number of maximal runs of CONSECUTIVE observed
hours and the longest run (exact ints; the classic ``h − rank``
grouping identity).  Bounded types×720 histogram through the map-side
combine, vectorized driver run-length fold.  Oracle: ``h −
ROW_NUMBER()`` island keys.

Reference anchors: relational-analytics + sequence families
(SURVEY.md §2.4); siblings: value_qq_distance (exact decile
machinery), user_activity_coverage (per-user gaps-and-islands),
hourly_peak_counts (bounded hourly histogram).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .queries_ext120 import HOUR_US, _bucket_counts

QQ_DECILES = tuple(range(1, 10))


# --------------------------------------------------------------------------
# balance_decile_order_stats
# --------------------------------------------------------------------------


def q_balance_decile_order_stats(sf_dir: str):
    from .agg import grouped_aggregate
    from .factjoin import attach_fact_value

    import ray

    # exact decile bounds via the DISTRIBUTED cents histogram: per-batch
    # (cents, count) partials, one bounded aggregate (|distinct cents| <=
    # the 1.1M-value acctbal domain, never O(customers)), driver cumsum +
    # rank select — replaces the full-column driver read + sort
    cds = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                columns=["c_acctbal"])

    def cents_partial(batch: pa.Table) -> pa.Table:
        cv = np.round(batch.column("c_acctbal").to_numpy() * 100.0).astype(
            np.int64)
        vals, cnt = np.unique(cv, return_counts=True)
        return pa.table({
            "v": pa.array(vals, type=pa.int64()),
            "cnt": pa.array(cnt, type=pa.int64()),
        })

    hist = grouped_aggregate(
        cds.map_batches(cents_partial, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["v"], [("sum", "cnt", "cnt")],
    ).to_pandas().sort_values("v")
    hv = hist["v"].to_numpy()
    hc = hist["cnt"].to_numpy()
    cum = np.cumsum(hc)
    n = int(cum[-1])
    ranks = np.array([(n - 1) * j // 10 for j in QQ_DECILES], dtype=np.int64)
    bounds = hv[np.searchsorted(cum, ranks + 1)]
    # customers per decile straight from the histogram (same assignment
    # rule as per-customer bucketing: decile = #bounds <= value)
    dec_of_val = np.searchsorted(bounds, hv, side="right")
    n_cust_per_dec = np.bincount(
        dec_of_val, weights=hc, minlength=10).astype(np.int64)

    # orders x customer: the broadcast fact attach (cents derived from
    # c_acctbal by side_val_fn); decile = #bounds <= cents, per batch
    def fact(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "key": pc.cast(batch.column("o_custkey"), pa.int64()),
            "rev": pa.array(cents, type=pa.int64()),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(fact, batch_format="pyarrow", zero_copy_batch=True)
    joined = attach_fact_value(
        sf_dir, "customer", "c_custkey", "c_acctbal", orders, ["rev"],
        out_col="bal",
        side_val_fn=lambda a: np.round(a * 100.0).astype(np.int64),
    )

    def bucket(batch: pa.Table) -> pa.Table:
        bal = batch.column("bal").to_numpy().astype(np.int64)
        d = np.searchsorted(bounds, bal, side="right").astype(np.int64)
        return pa.table({
            "decile": pa.array(d, type=pa.int64()),
            "one": pa.array(np.ones(len(d), dtype=np.int64)),
            "rev": batch.column("rev"),
        })

    agg = grouped_aggregate(
        joined.map_batches(bucket, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["decile"],
        [("sum", "one", "n_orders"), ("sum", "rev", "rev_cents")],
    ).to_pandas()  # bounded: 10 rows

    got = {int(r.decile): (int(r.n_orders), int(r.rev_cents))
           for r in agg.itertuples()}
    rows = {
        "decile": list(range(10)),
        "n_customers": [int(n_cust_per_dec[d]) for d in range(10)],
        "n_orders": [got.get(d, (0, 0))[0] for d in range(10)],
        "rev_cents": [got.get(d, (0, 0))[1] for d in range(10)],
    }
    return ray.data.from_arrow(pa.table({
        k: pa.array(vv, type=pa.int64()) for k, vv in rows.items()
    }))


SQL_BALANCE_DECILE_ORDER_STATS = """
WITH cc AS (
  SELECT c_custkey, CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v
  FROM customer
), srt AS (
  SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn,
         COUNT(*) OVER () AS n
  FROM cc
), b AS (
  SELECT j.j, MIN(s.v) AS qv
  FROM (SELECT UNNEST([1,2,3,4,5,6,7,8,9]) AS j) j
  JOIN srt s ON s.rn = (s.n - 1) * j.j // 10 + 1
  GROUP BY j.j
), d AS (
  SELECT cc.c_custkey,
         (SELECT COUNT(*) FROM b WHERE b.qv <= cc.v) AS decile
  FROM cc
), o AS (
  SELECT d.decile,
         CAST(COUNT(*) AS BIGINT) AS n_orders,
         CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS rev_cents
  FROM orders o JOIN d ON d.c_custkey = o.o_custkey
  GROUP BY d.decile
), c AS (
  SELECT decile, CAST(COUNT(*) AS BIGINT) AS n_customers
  FROM d GROUP BY decile
)
SELECT CAST(g.decile AS BIGINT) AS decile,
       COALESCE(c.n_customers, 0) AS n_customers,
       COALESCE(o.n_orders, 0) AS n_orders,
       COALESCE(o.rev_cents, 0) AS rev_cents
FROM (SELECT UNNEST(range(10)) AS decile) g
LEFT JOIN c ON c.decile = g.decile
LEFT JOIN o ON o.decile = g.decile
"""


# --------------------------------------------------------------------------
# hourly_islands_per_type
# --------------------------------------------------------------------------


def q_hourly_islands_per_type(sf_dir: str):
    import ray
    hist = _bucket_counts(sf_dir, HOUR_US, "hour")

    types, ni, lg = [], [], []
    for et, g in hist.groupby("event_type"):
        h = np.sort(g["hour"].to_numpy().astype(np.int64))
        if len(h) == 0:
            continue
        breaks = np.diff(h) > 1
        n_islands = 1 + int(breaks.sum())
        starts = np.concatenate([[0], np.nonzero(breaks)[0] + 1])
        ends = np.concatenate([np.nonzero(breaks)[0], [len(h) - 1]])
        longest = int((h[ends] - h[starts] + 1).max())
        types.append(et)
        ni.append(n_islands)
        lg.append(longest)
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n_islands": pa.array(ni, type=pa.int64()),
        "longest_run": pa.array(lg, type=pa.int64()),
    }))


SQL_HOURLY_ISLANDS_PER_TYPE = f"""
WITH hourly AS (
  SELECT DISTINCT event_type, epoch_us(ts) // {HOUR_US} AS h FROM events
), isl AS (
  SELECT event_type,
         h - ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY h)
             AS island
  FROM hourly
), runs AS (
  SELECT event_type, island, CAST(COUNT(*) AS BIGINT) AS run_len
  FROM isl GROUP BY 1, 2
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(MAX(run_len) AS BIGINT) AS longest_run
FROM runs GROUP BY event_type
"""


def build_queries_ext134() -> dict:
    return {
        "balance_decile_order_stats": q_balance_decile_order_stats,
        "hourly_islands_per_type": q_hourly_islands_per_type,
    }


def build_oracles_ext134() -> dict:
    return {
        "balance_decile_order_stats": SQL_BALANCE_DECILE_ORDER_STATS,
        "hourly_islands_per_type": SQL_HOURLY_ISLANDS_PER_TYPE,
    }
