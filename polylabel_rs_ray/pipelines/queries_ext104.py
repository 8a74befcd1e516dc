"""Round-3 extension operators, batch 104: TPC-H Q8 and Q9 shapes.

``market_share_q8`` — TPC-H Q8 adapted: among orders placed by
customers of region ASIA for parts of type ECONOMY, the yearly revenue
share supplied by nation NATION_2's suppliers.  Small sides travel as
broadcasts exactly once (the ASIA custkey set — the Q3 semi-join-set
trade; the ECONOMY partkey set; the 10-row supplier→nation map);
lineitem meets orders in ONE orderkey co-partition and every group
emits bounded (year, nation_micro, total_micro) partials.  The share
is a single float division of two exact int64 sums, so it is
bit-reproducible on both engines.

``nation_profit_q9`` — TPC-H Q9 adapted (no ps_supplycost in this
schema): profit proxy ``revenue_micro − qty·retail_cents·60`` (cost =
60% of the part's retail price) per (supplier nation, order year).
Same single-exchange skeleton; part retail cents and supplier nations
ride as broadcast arrays; the (25 nations × 7 years) rollup is
bounded.  Profits can be negative — int64 micro units throughout.

Reference anchors: engine-level relational surface (SURVEY.md §2.3),
completing the TPC-H join-shape family (ext60 Q3/Q5, ext102 Q4/Q6,
ext103 Q10/Q12, queries.py Q1/Q11/Q13/Q15-Q19/Q22, ext35 Q14).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange, n_partitions


Q8_REGION = "ASIA"
Q8_PTYPE = "ECONOMY"
Q8_NATIONKEY = 2  # NATION_2 sits in region ASIA (regionkey 2)

Q9_COST_PCT = 60  # cost proxy: 60% of p_retailprice

_YEAR_EPOCH = np.datetime64("1970-01-01", "us")


def _years_from_us(date_us: np.ndarray) -> np.ndarray:
    return (date_us.astype("datetime64[us]").astype("datetime64[Y]")
            .astype(np.int64) + 1970)


def q_market_share_q8(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    P = n_partitions(n_parts)

    # broadcast side 1: ASIA custkeys (sorted array — the semi-join set)
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    rk = reg.column("r_regionkey").to_numpy().astype(np.int64)
    rname = reg.column("r_name").to_pylist()
    region_key = rk[rname.index(Q8_REGION)]
    nk = nat.column("n_nationkey").to_numpy().astype(np.int64)
    nrk = nat.column("n_regionkey").to_numpy().astype(np.int64)
    asia_nations = np.sort(nk[nrk == region_key])
    # the region membership flag attaches to orders through the
    # broadcast customer lookup (customer is fact-scaled;
    # pipelines/factjoin.attach_fact_value)

    # broadcast side 2: ECONOMY partkeys
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    sel = pc.equal(part.column("p_type"), Q8_PTYPE).to_numpy(
        zero_copy_only=False)
    econ_parts = np.sort(pk[sel])

    # broadcast side 3: supplier -> nation (bounded dim)
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    snk = supp.column("s_nationkey").to_numpy().astype(np.int64)
    so = np.argsort(sk)
    sk_sorted, snk_sorted = sk[so], snk[so]

    def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
        if len(sorted_keys) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.clip(np.searchsorted(sorted_keys, keys), 0,
                      len(sorted_keys) - 1)
        return sorted_keys[pos] == keys

    def key_orders(batch: pa.Table) -> pa.Table:
        # batch comes from the gated customer attach: in_region flag
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = batch.column("order_date_us").to_numpy().astype(np.int64)
        m = batch.column("in_region").to_numpy().astype(np.int64) == 1
        years = _years_from_us(date_us[m])
        n = int(m.sum())
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey[m], type=pa.int64()),
            "a": pa.array(years, type=pa.int64()),
            "b": pa.nulls(n, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        m = _in_sorted(econ_parts, lpk)
        t = batch.filter(pa.array(m))
        okey = t.column("l_orderkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(t.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(t.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        rev = cents * (100 - disc)
        lsk = t.column("l_suppkey").to_numpy().astype(np.int64)
        pos = np.clip(np.searchsorted(sk_sorted, lsk), 0,
                      max(len(sk_sorted) - 1, 0))
        from_nation = (sk_sorted[pos] == lsk) & \
            (snk_sorted[pos] == Q8_NATIONKEY)
        # per-batch partial per orderkey: (total_rev, nation_rev)
        g = pa.table({
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "a": pa.array(rev, type=pa.int64()),
            "b": pa.array(np.where(from_nation, rev, 0), type=pa.int64()),
        }).group_by(["o_orderkey"]).aggregate([("a", "sum"), ("b", "sum")])
        n = len(g)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": g.column("o_orderkey"),
            "a": g.column("a_sum"),
            "b": g.column("b_sum"),
        })

    def year_partials(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("o_orderkey").to_numpy().astype(np.int64)
        a = group.column("a").to_numpy(zero_copy_only=False)
        b = group.column("b").to_numpy(zero_copy_only=False)
        is_ord = side == 1
        ok = keys[is_ord]
        years = a[is_ord].astype(np.int64)
        lk = keys[~is_ord]
        tot = a[~is_ord].astype(np.int64)
        natv = b[~is_ord].astype(np.int64)
        empty = pa.table({
            "o_year": pa.array([], type=pa.int64()),
            "nation_micro": pa.array([], type=pa.int64()),
            "total_micro": pa.array([], type=pa.int64()),
        })
        if len(ok) == 0 or len(lk) == 0:
            return empty
        order = np.argsort(ok)
        ok_s, yr_s = ok[order], years[order]
        pos = np.clip(np.searchsorted(ok_s, lk), 0, len(ok_s) - 1)
        hit = ok_s[pos] == lk
        yr = yr_s[pos[hit]]
        g = pa.table({
            "o_year": pa.array(yr, type=pa.int64()),
            "nation_micro": pa.array(natv[hit], type=pa.int64()),
            "total_micro": pa.array(tot[hit], type=pa.int64()),
        }).group_by(["o_year"]).aggregate(
            [("nation_micro", "sum"), ("total_micro", "sum")])
        return pa.table({
            "o_year": g.column("o_year"),
            "nation_micro": g.column("nation_micro_sum"),
            "total_micro": g.column("total_micro_sum"),
        })

    from .factjoin import attach_fact_value

    def orders_fact(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(batch.column("o_custkey"), pa.int64()),
            "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
            "order_date_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
        })

    flagged = attach_fact_value(
        sf_dir, "customer", "c_custkey", "c_nationkey",
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        ).map_batches(orders_fact, batch_format="pyarrow",
                      zero_copy_batch=True),
        ["o_orderkey", "order_date_us"], out_col="in_region",
        side_val_fn=lambda a: np.isin(
            a.astype(np.int64), asia_nations).astype(np.int64),
    )
    od = flagged.map_batches(key_orders, batch_format="pyarrow",
                             zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    summed = grouped_aggregate(
        hash_exchange(li.union(od), "o_orderkey", year_partials, P),
        ["o_year"],
        [("sum", "nation_micro", "nation_micro"),
         ("sum", "total_micro", "total_micro")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        natv = batch.column("nation_micro").to_numpy().astype(np.int64)
        tot = batch.column("total_micro").to_numpy().astype(np.int64)
        return pa.table({
            "o_year": batch.column("o_year"),
            "nation_micro": batch.column("nation_micro"),
            "total_micro": batch.column("total_micro"),
            "mkt_share": pa.array(
                natv.astype(np.float64) / tot.astype(np.float64),
                type=pa.float64()),
        })

    return summed.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True).sort("o_year")


SQL_MARKET_SHARE_Q8 = f"""
WITH x AS (
  SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev,
         s.s_nationkey AS snk
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation cn ON cn.n_nationkey = c.c_nationkey
  JOIN region r ON r.r_regionkey = cn.n_regionkey
  JOIN part p ON p.p_partkey = l.l_partkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  WHERE r.r_name = '{Q8_REGION}' AND p.p_type = '{Q8_PTYPE}'
)
SELECT o_year,
       CAST(SUM(CASE WHEN snk = {Q8_NATIONKEY} THEN rev ELSE 0 END)
            AS BIGINT) AS nation_micro,
       CAST(SUM(rev) AS BIGINT) AS total_micro,
       CAST(SUM(CASE WHEN snk = {Q8_NATIONKEY} THEN rev ELSE 0 END)
            AS DOUBLE)
         / CAST(SUM(rev) AS DOUBLE) AS mkt_share
FROM x GROUP BY o_year ORDER BY o_year
"""


def q_nation_profit_q9(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_retailprice"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    retail_cents = pc.cast(
        pc.round(pc.multiply(part.column("p_retailprice"), 100.0)),
        pa.int64()).to_numpy()
    po = np.argsort(pk)
    pk_sorted, retail_sorted = pk[po], retail_cents[po]

    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    snk = supp.column("s_nationkey").to_numpy().astype(np.int64)
    so = np.argsort(sk)
    sk_sorted, snk_sorted = sk[so], snk[so]

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nation_names = dict(zip(
        nat.column("n_nationkey").to_numpy().astype(np.int64).tolist(),
        nat.column("n_name").to_pylist()))

    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "a": pa.array(_years_from_us(date_us), type=pa.int64()),
            "b": pa.nulls(n, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        qty = pc.cast(pc.round(batch.column("l_quantity")),
                      pa.int64()).to_numpy()
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        rev = cents * (100 - disc)
        ppos = np.clip(np.searchsorted(pk_sorted, lpk), 0,
                       len(pk_sorted) - 1)
        cost = qty * retail_sorted[ppos] * Q9_COST_PCT
        profit = rev - cost
        spos = np.clip(np.searchsorted(sk_sorted, lsk), 0,
                       len(sk_sorted) - 1)
        nation = snk_sorted[spos]
        # per-batch partial per (orderkey, nation): profit sum
        g = pa.table({
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "a": pa.array(nation, type=pa.int64()),
            "b": pa.array(profit, type=pa.int64()),
        }).group_by(["o_orderkey", "a"]).aggregate([("b", "sum")])
        n = len(g)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": g.column("o_orderkey"),
            "a": g.column("a"),
            "b": g.column("b_sum"),
        })

    def nation_year_partials(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("o_orderkey").to_numpy().astype(np.int64)
        a = group.column("a").to_numpy(zero_copy_only=False)
        b = group.column("b").to_numpy(zero_copy_only=False)
        is_ord = side == 1
        ok = keys[is_ord]
        years = a[is_ord].astype(np.int64)
        lk = keys[~is_ord]
        nation = a[~is_ord].astype(np.int64)
        profit = b[~is_ord].astype(np.int64)
        empty = pa.table({
            "n_nationkey": pa.array([], type=pa.int64()),
            "o_year": pa.array([], type=pa.int64()),
            "profit_micro": pa.array([], type=pa.int64()),
        })
        if len(ok) == 0 or len(lk) == 0:
            return empty
        order = np.argsort(ok)
        ok_s, yr_s = ok[order], years[order]
        pos = np.clip(np.searchsorted(ok_s, lk), 0, len(ok_s) - 1)
        hit = ok_s[pos] == lk
        g = pa.table({
            "n_nationkey": pa.array(nation[hit], type=pa.int64()),
            "o_year": pa.array(yr_s[pos[hit]], type=pa.int64()),
            "profit_micro": pa.array(profit[hit], type=pa.int64()),
        }).group_by(["n_nationkey", "o_year"]).aggregate(
            [("profit_micro", "sum")])
        return pa.table({
            "n_nationkey": g.column("n_nationkey"),
            "o_year": g.column("o_year"),
            "profit_micro": g.column("profit_micro_sum"),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    summed = grouped_aggregate(
        hash_exchange(li.union(od), "o_orderkey", nation_year_partials, n_parts),
        ["n_nationkey", "o_year"],
        [("sum", "profit_micro", "profit_micro")],
    )

    def decode(batch: pa.Table) -> pa.Table:
        nkv = batch.column("n_nationkey").to_numpy().astype(np.int64)
        return pa.table({
            "n_name": pa.array([nation_names[int(k)] for k in nkv],
                               type=pa.string()),
            "o_year": batch.column("o_year"),
            "profit_micro": batch.column("profit_micro"),
        })

    return summed.map_batches(decode, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .sort(["n_name", "o_year"])


SQL_NATION_PROFIT_Q9 = f"""
SELECT n.n_name,
       CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
                - CAST(ROUND(l.l_quantity) AS BIGINT)
                  * CAST(ROUND(p.p_retailprice * 100) AS BIGINT)
                  * {Q9_COST_PCT}) AS BIGINT) AS profit_micro
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN part p ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY n.n_name, o_year
ORDER BY n.n_name, o_year
"""


def build_queries_ext104() -> dict:
    return {
        "market_share_q8": q_market_share_q8,
        "nation_profit_q9": q_nation_profit_q9,
    }


def build_oracles_ext104() -> dict:
    return {
        "market_share_q8": SQL_MARKET_SHARE_Q8,
        "nation_profit_q9": SQL_NATION_PROFIT_Q9,
    }
