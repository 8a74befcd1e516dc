"""Round-3 extension operators, batch 102: the two remaining *scan-heavy*
TPC-H shapes this schema supports directly (Q6 and Q4).

``forecast_revenue_q6`` — TPC-H Q6: a pure filter-aggregate over
lineitem (shipdate window x discount band x quantity cap), revenue
``sum(extendedprice * discount)``.  The canonical "predicate pushdown +
map-side total" scan: only three columns leave storage, each batch
folds to a single partial row, the exchange carries P rows.  Discount
compares as the ROUNDED integer percent on both sides (float BETWEEN
on a 2-decimal column is representation-dependent; the integer band is
not).

``order_priority_q4`` — TPC-H Q4 adapted to this schema (no
l_commitdate / l_receiptdate): count orders per ``o_orderpriority``
placed in a half-year window where at least one lineitem shipped more
than 90 days after the order date (the EXISTS late-shipment
semi-join).  Distributed shape: lineitem prunes map-side to
``l_shipdate > window_lo + 90d`` (no qualifying lineitem can ship
earlier — the date arithmetic pushes the EXISTS predicate into the
scan), folds to per-batch per-orderkey MAX-shipdate partials, and
meets the windowed orders in ONE hash co-partition on orderkey; each
group emits bounded (priority, count) partials so the final exchange
is 5 rows x P.

Reference anchors: urschrei/polylabel-rs has no relational surface;
these extend the engine level (SURVEY.md §2.3) like ext60's Q3/Q5.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange
from .queries import _ts_us


_DAY_US = 86_400_000_000

Q6_LO = "1997-01-01"
Q6_HI = "1998-01-01"
Q6_DISC_LO = 5   # integer percent band (0.05..0.07 inclusive)
Q6_DISC_HI = 7
Q6_QTY_CAP = 24.0

Q4_LO = "1997-01-01"
Q4_HI = "1997-07-01"
Q4_LATE_DAYS = 90


def q_forecast_revenue_q6(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    lo_us, hi_us = _ts_us(Q6_LO), _ts_us(Q6_HI)

    def partial(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
        qty = batch.column("l_quantity").to_numpy()
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        m = ((ship >= lo_us) & (ship < hi_us)
             & (disc >= Q6_DISC_LO) & (disc <= Q6_DISC_HI)
             & (qty < Q6_QTY_CAP))
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n_items": pa.array([int(m.sum())], type=pa.int64()),
            "revenue_micro": pa.array([int((cents[m] * disc[m]).sum())],
                                      type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_aggregate(
        ds, ["k"],
        [("sum", "n_items", "n_items"),
         ("sum", "revenue_micro", "revenue_micro")],
    ).drop_columns(["k"])


SQL_FORECAST_REVENUE_Q6 = f"""
SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT)
         AS revenue_micro
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{Q6_LO}'
  AND l_shipdate < TIMESTAMP '{Q6_HI}'
  AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN {Q6_DISC_LO} AND {Q6_DISC_HI}
  AND l_quantity < {Q6_QTY_CAP}
"""


def q_order_priority_q4(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    lo_us, hi_us = _ts_us(Q4_LO), _ts_us(Q4_HI)
    late_us = Q4_LATE_DAYS * _DAY_US
    # no lineitem shipped before window_lo + 90d can satisfy the EXISTS
    # for any windowed order: prune at the scan.
    ship_floor = lo_us + late_us

    # priorities are a bounded enum; carry an int id through the exchange
    # and decode at the end (string columns through map_groups cost more).
    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
        m = (date_us >= lo_us) & (date_us < hi_us)
        n = int(m.sum())
        prio = pc.utf8_slice_codeunits(
            pc.cast(batch.column("o_orderpriority"), pa.string()), 0, 1)
        prio_id = pc.cast(prio.filter(pa.array(m)), pa.int64()).to_numpy() \
            if n else np.empty(0, np.int64)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey[m], type=pa.int64()),
            "ship_us": pa.array(date_us[m], type=pa.int64()),  # order date
            "prio_id": pa.array(prio_id, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
        m = ship > ship_floor
        # per-batch partial: max shipdate per orderkey
        t = pa.table({
            "o_orderkey": pa.array(okey[m], type=pa.int64()),
            "ship_us": pa.array(ship[m], type=pa.int64()),
        })
        agg = t.group_by(["o_orderkey"]).aggregate([("ship_us", "max")])
        ok = agg.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(ok)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": agg.column("o_orderkey"),
            "ship_us": agg.column("ship_us_max"),
            "prio_id": pa.nulls(n, type=pa.int64()),
        })

    def late_counts(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("o_orderkey").to_numpy().astype(np.int64)
        ship = group.column("ship_us").to_numpy().astype(np.int64)
        is_ord = side == 1
        li_keys, li_ship = keys[~is_ord], ship[~is_ord]
        if len(li_keys) == 0 or not is_ord.any():
            return pa.table({"prio_id": pa.array([], type=pa.int64()),
                             "order_count": pa.array([], type=pa.int64())})
        order = np.argsort(li_keys, kind="stable")
        li_sorted = li_keys[order]
        # combine the per-batch partial maxes per orderkey
        starts = np.flatnonzero(np.r_[True, li_sorted[1:] != li_sorted[:-1]])
        uk = li_sorted[starts]
        umax = np.maximum.reduceat(li_ship[order], starts)
        ok, odate = keys[is_ord], ship[is_ord]
        prio = group.column("prio_id").to_numpy(zero_copy_only=False)[is_ord] \
            .astype(np.int64)
        pos = np.clip(np.searchsorted(uk, ok), 0, max(len(uk) - 1, 0))
        late = (uk[pos] == ok) & (umax[pos] > odate + late_us)
        cnt = np.zeros(6, dtype=np.int64)
        np.add.at(cnt, prio[late], 1)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "prio_id": pa.array(nz.astype(np.int64), type=pa.int64()),
            "order_count": pa.array(cnt[nz], type=pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    partials = hash_exchange(li.union(od), "o_orderkey", late_counts, n_parts)
    summed = grouped_aggregate(
        partials, ["prio_id"], [("sum", "order_count", "order_count")],
    )

    names = {1: "1-URGENT", 2: "2-HIGH", 3: "3-MEDIUM",
             4: "4-NOT SPECIFIED", 5: "5-LOW"}

    def decode(batch: pa.Table) -> pa.Table:
        ids = batch.column("prio_id").to_numpy().astype(np.int64)
        return pa.table({
            "o_orderpriority": pa.array([names[int(i)] for i in ids],
                                        type=pa.string()),
            "order_count": batch.column("order_count"),
        })

    return summed.map_batches(decode, batch_format="pyarrow",
                              zero_copy_batch=True).sort("o_orderpriority")


SQL_ORDER_PRIORITY_Q4 = f"""
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '{Q4_LO}'
  AND o.o_orderdate < TIMESTAMP '{Q4_HI}'
  AND EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey
      AND l.l_shipdate > o.o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY
  )
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def build_queries_ext102() -> dict:
    return {
        "forecast_revenue_q6": q_forecast_revenue_q6,
        "order_priority_q4": q_order_priority_q4,
    }


def build_oracles_ext102() -> dict:
    return {
        "forecast_revenue_q6": SQL_FORECAST_REVENUE_Q6,
        "order_priority_q4": SQL_ORDER_PRIORITY_Q4,
    }
