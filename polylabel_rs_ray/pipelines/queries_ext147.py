"""Round-3 extension operators, batch 147: brand leadership timeline +
exact-quantile exemplar row.

``brand_leadership_flips`` — the temporal-argmax timeline: per
calendar month of ``l_shipdate``, the revenue-leading brand (exact
cent·percent units, ties to the lexicographically smallest brand —
the brand_share_by_type contract) plus whether the leader CHANGED
from the previous month.  The (month, brand) aggregate is bounded
(~84 months × 25 brands) through the map-side combine; the argmax +
flip scan is one driver pass.  Oracle: QUALIFY per month + LAG.

``p90_order_exemplar`` — the arg-quantile shape "show me a concrete
order at the 90th percentile": the exact lower-quantile P90 of order
totalprice cents (index (n−1)·9//10, the repo convention) and the
SMALLEST orderkey attaining exactly that price (deterministic
exemplar).  The distinct-price histogram is bounded by the price
domain; the exemplar resolves with one packed-min aggregate over the
matching rows (no driver scan of the fact table).  Oracle: the
ROW_NUMBER quantile idiom + MIN(orderkey) filter.

Reference anchors: decision-support family (SURVEY.md §2.4);
siblings: brand_share_by_type (packed argmax), day_rank_in_month
(bounded calendar folds), value_quantiles (exact quantile
convention), cheapest_supplier_q2 (exemplar joins).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000


# --------------------------------------------------------------------------
# brand_leadership_flips
# --------------------------------------------------------------------------


def q_brand_leadership_flips(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    brands = sorted(set(part.column("p_brand").to_pylist()))
    bidx = {b: i for i, b in enumerate(brands)}
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    bc = np.array([bidx[b] for b in part.column("p_brand").to_pylist()],
                  dtype=np.int64)
    order = np.argsort(pk)
    pk, bc = pk[order], bc[order]
    side = ray.put((pk, bc))

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice",
                 "l_discount"])

    def attach(batch: pa.Table) -> pa.Table:
        pk_, bc_ = ray.get(side)
        lp = batch.column("l_partkey").to_numpy().astype(np.int64)
        day = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy() \
            // DAY_US
        month = (day * DAY_US).astype("datetime64[us]").astype(
            "datetime64[M]").astype(np.int64)
        cents = np.round(
            batch.column("l_extendedprice").to_numpy() * 100.0).astype(
            np.int64)
        dp = np.round(
            batch.column("l_discount").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "m": pa.array(month, type=pa.int64()),
            "b": pa.array(bc_[np.searchsorted(pk_, lp)], type=pa.int64()),
            "rev": pa.array(cents * (100 - dp), type=pa.int64()),
        })

    mb = grouped_aggregate(
        ds.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True),
        ["m", "b"], [("sum", "rev", "rev")],
    ).to_pandas()  # bounded: months × brands

    months_out, leaders, revs, flips = [], [], [], []
    prev = None
    for m in sorted(mb["m"].unique()):
        g = mb[mb["m"] == m]
        r = g["rev"].to_numpy().astype(np.int64)
        b = g["b"].to_numpy().astype(np.int64)
        k = np.lexsort((b, -r))[0]
        leader = brands[int(b[k])]
        months_out.append(int(m))
        leaders.append(leader)
        revs.append(int(r[k]))
        flips.append(int(prev is not None and leader != prev))
        prev = leader
    return ray.data.from_arrow(pa.table({
        "month_idx": pa.array(months_out, type=pa.int64()),
        "leader": pa.array(leaders, type=pa.string()),
        "leader_rev": pa.array(revs, type=pa.int64()),
        "flipped": pa.array(flips, type=pa.int64()),
    }))


SQL_BRAND_LEADERSHIP_FLIPS = """
WITH mb AS (
  SELECT CAST(12 * (EXTRACT(year FROM date_trunc('month', l.l_shipdate))
                    - 1970)
              + EXTRACT(month FROM date_trunc('month', l.l_shipdate)) - 1
         AS BIGINT) AS month_idx,
         p.p_brand,
         CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
              AS BIGINT) AS rev
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1, 2
), lead_m AS (
  SELECT month_idx, p_brand AS leader, rev AS leader_rev
  FROM mb
  QUALIFY ROW_NUMBER() OVER (PARTITION BY month_idx
                             ORDER BY rev DESC, p_brand ASC) = 1
)
SELECT month_idx, leader, leader_rev,
       CAST(CASE WHEN LAG(leader) OVER (ORDER BY month_idx) IS NULL
                 THEN 0
                 WHEN LAG(leader) OVER (ORDER BY month_idx) <> leader
                 THEN 1 ELSE 0 END AS BIGINT) AS flipped
FROM lead_m
"""


# --------------------------------------------------------------------------
# p90_order_exemplar
# --------------------------------------------------------------------------


def q_p90_order_exemplar(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        v = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        t = pa.table({"c": pa.array(v, type=pa.int64())})
        out = t.group_by(["c"]).aggregate([("c", "count")])
        return pa.table({
            "c": out.column("c"),
            "n": pc.cast(out.column("c_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["c"], [("sum", "n", "n")],
    ).to_pandas().sort_values("c")  # bounded by the distinct price domain

    c = hist["c"].to_numpy().astype(np.int64)
    n = hist["n"].to_numpy().astype(np.int64)
    cum = np.cumsum(n)
    total = int(cum[-1])
    idx = (total - 1) * 9 // 10
    p90 = int(c[np.searchsorted(cum, idx + 1)])

    def exemplar(batch: pa.Table) -> pa.Table:
        v = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        m = v == p90
        best = int(k[m].min()) if m.any() else np.iinfo(np.int64).max
        return pa.table({
            "g": pa.array([0], type=pa.int64()),
            "okey": pa.array([best], type=pa.int64()),
        })

    ex = grouped_aggregate(
        ds.map_batches(exemplar, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["g"], [("min", "okey", "okey")],
    ).to_pandas()
    return ray.data.from_arrow(pa.table({
        "p90_cents": pa.array([p90], type=pa.int64()),
        "exemplar_orderkey": pa.array([int(ex["okey"][0])],
                                      type=pa.int64()),
        "n_orders": pa.array([total], type=pa.int64()),
    }))


SQL_P90_ORDER_EXEMPLAR = """
WITH v AS (
  SELECT o_orderkey, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c
  FROM orders
), q AS (
  SELECT c AS p90 FROM (
    SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn, COUNT(*) OVER () AS d
    FROM v
  ) WHERE rn = (d - 1) * 9 // 10 + 1
)
SELECT CAST((SELECT p90 FROM q) AS BIGINT) AS p90_cents,
       CAST((SELECT MIN(o_orderkey) FROM v
             WHERE c = (SELECT p90 FROM q)) AS BIGINT)
           AS exemplar_orderkey,
       CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_orders
"""


def build_queries_ext147() -> dict:
    return {
        "brand_leadership_flips": q_brand_leadership_flips,
        "p90_order_exemplar": q_p90_order_exemplar,
    }


def build_oracles_ext147() -> dict:
    return {
        "brand_leadership_flips": SQL_BRAND_LEADERSHIP_FLIPS,
        "p90_order_exemplar": SQL_P90_ORDER_EXEMPLAR,
    }
