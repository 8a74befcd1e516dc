"""Round-3 extension operators, batch 109: TPC-H Q2 shape + independence
test.

``cheapest_supplier_q2`` — TPC-H Q2 adapted (no partsupp table): for
every STANDARD-type part, the cheapest EUROPE-supplier offer observed
in lineitem (cost = min extendedprice cents), ties to the smaller
suppkey; top 100 by (s_acctbal DESC, n_name, s_name, p_partkey) like
the original.  The correlated min-subquery collapses into ONE packed
int64 min-aggregate: ``packed = cents << 20 | suppkey`` makes
min(packed) EXACTLY the (cents, suppkey) lexicographic argmin
(documented bounds: cents < 2^43, suppkey < 2^20), so the whole query
is one map-side-combined partkey aggregate — no map_groups, no
argmin exchange.  Region/type filters ride as broadcast key sets
(supplier and part are dimensions).

``segment_priority_independence`` — chi-square independence audit of
customer market segment vs order priority: orders meet customers in
ONE custkey hash co-partition (both sides are facts at scale — the
ext37 union-attach shape), each group emits bounded (segment,
priority) count partials, and the driver folds the 5x5 contingency
exactly: per cell, ``dev = n*O_ij − R_i*C_j`` is exact int64 (≤1e11
at sf0.1), and the chi-square term ``dev²/(n·R_i·C_j)`` is computed
as the identical float expression on both engines.  Per-cell rows
dodge the float-sum association-order trap — each term is one
division; the oracle sums nothing.

Reference anchors: engine-level relational surface (SURVEY.md §2.3);
TPC-H family completion (see COVERAGE.md).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


Q2_REGION = "EUROPE"
Q2_PTYPE = "STANDARD"
Q2_TOPK = 100
PACK_SHIFT = 20  # suppkey < 2^20; cents < 2^43 (documented bounds)


def q_cheapest_supplier_q2(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    rk = reg.column("r_regionkey").to_numpy().astype(np.int64)
    region_key = rk[reg.column("r_name").to_pylist().index(Q2_REGION)]
    nk = nat.column("n_nationkey").to_numpy().astype(np.int64)
    nrk = nat.column("n_regionkey").to_numpy().astype(np.int64)
    nation_name = dict(zip(nk.tolist(), nat.column("n_name").to_pylist()))
    region_nations = set(nk[nrk == region_key].tolist())

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    snk = supp.column("s_nationkey").to_numpy().astype(np.int64)
    in_region = np.isin(snk, list(region_nations))
    eu_supp = np.sort(sk[in_region])
    s_name = dict(zip(sk.tolist(), supp.column("s_name").to_pylist()))
    s_bal = dict(zip(sk.tolist(),
                     supp.column("s_acctbal").to_numpy().tolist()))
    s_nat = dict(zip(sk.tolist(), snk.tolist()))

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name", "p_type"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    std = pc.equal(part.column("p_type"), Q2_PTYPE).to_numpy(
        zero_copy_only=False)
    std_parts = np.sort(pk[std])
    p_name = dict(zip(pk.tolist(), part.column("p_name").to_pylist()))

    def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
        if len(sorted_keys) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.clip(np.searchsorted(sorted_keys, keys), 0,
                      len(sorted_keys) - 1)
        return sorted_keys[pos] == keys

    def offers(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        m = _in_sorted(std_parts, lpk) & _in_sorted(eu_supp, lsk)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()[m]
        packed = (cents << PACK_SHIFT) | lsk[m]
        g = pa.table({
            "p_partkey": pa.array(lpk[m], type=pa.int64()),
            "packed": pa.array(packed, type=pa.int64()),
        }).group_by(["p_partkey"]).aggregate([("packed", "min")])
        return pa.table({
            "p_partkey": g.column("p_partkey"),
            "packed": g.column("packed_min"),
        })

    best = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_suppkey", "l_extendedprice"],
        ).map_batches(offers, batch_format="pyarrow", zero_copy_batch=True),
        ["p_partkey"], [("min", "packed", "packed")],
        n_parts=n_parts,
    )

    def decode(batch: pa.Table) -> pa.Table:
        pkv = batch.column("p_partkey").to_numpy().astype(np.int64)
        packed = batch.column("packed").to_numpy().astype(np.int64)
        cents = packed >> PACK_SHIFT
        skv = packed & ((1 << PACK_SHIFT) - 1)
        return pa.table({
            "s_acctbal": pa.array([s_bal[int(s)] for s in skv],
                                  type=pa.float64()),
            "s_name": pa.array([s_name[int(s)] for s in skv],
                               type=pa.string()),
            "n_name": pa.array([nation_name[s_nat[int(s)]] for s in skv],
                               type=pa.string()),
            "p_partkey": pa.array(pkv, type=pa.int64()),
            "p_name": pa.array([p_name[int(p)] for p in pkv],
                               type=pa.string()),
            "min_cost_cents": pa.array(cents, type=pa.int64()),
        })

    return best.map_batches(decode, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .sort(["s_acctbal", "n_name", "s_name", "p_partkey"],
              descending=[True, False, False, False]) \
        .limit(Q2_TOPK)


SQL_CHEAPEST_SUPPLIER_Q2 = f"""
WITH offer AS (
  SELECT l.l_partkey AS pk, l.l_suppkey AS sk,
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS cents
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey AND p.p_type = '{Q2_PTYPE}'
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation n ON n.n_nationkey = s.s_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey
  WHERE r.r_name = '{Q2_REGION}'
),
ranked AS (
  SELECT pk, sk, cents,
         ROW_NUMBER() OVER (PARTITION BY pk ORDER BY cents, sk) AS rn
  FROM offer
)
SELECT s.s_acctbal, s.s_name, n.n_name,
       ranked.pk AS p_partkey, p.p_name,
       ranked.cents AS min_cost_cents
FROM ranked
JOIN supplier s ON s.s_suppkey = ranked.sk
JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN part p ON p.p_partkey = ranked.pk
WHERE rn = 1
ORDER BY s.s_acctbal DESC, n.n_name, s.s_name, p_partkey
LIMIT {Q2_TOPK}
"""


def q_segment_priority_independence(sf_dir: str,
                                    n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def key_orders(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        n = len(ck)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "c_custkey": pa.array(ck, type=pa.int64()),
            "label": batch.column("o_orderpriority"),
        })

    def key_customer(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        n = len(ck)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "c_custkey": pa.array(ck, type=pa.int64()),
            "label": batch.column("c_mktsegment"),
        })

    def cell_partials(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy().astype(np.int64)
        keys = group.column("c_custkey").to_numpy().astype(np.int64)
        is_dim = side == 1
        dk = keys[is_dim]
        order = np.argsort(dk)
        dk_s = dk[order]
        seg_vals = group.column("label").filter(
            pa.array(is_dim)).take(pa.array(order))
        fk = keys[~is_dim]
        prio_vals = group.column("label").filter(pa.array(~is_dim))
        empty = pa.table({
            "segment": pa.array([], type=pa.string()),
            "priority": pa.array([], type=pa.string()),
            "observed": pa.array([], type=pa.int64()),
        })
        if len(dk_s) == 0 or len(fk) == 0:
            return empty
        pos = np.clip(np.searchsorted(dk_s, fk), 0, len(dk_s) - 1)
        hit = dk_s[pos] == fk
        g = pa.table({
            "segment": seg_vals.take(pa.array(pos[hit])),
            "priority": prio_vals.filter(pa.array(hit)),
            "one": pa.array(np.ones(int(hit.sum()), np.int64)),
        }).group_by(["segment", "priority"]).aggregate([("one", "sum")])
        return pa.table({
            "segment": g.column("segment"),
            "priority": g.column("priority"),
            "observed": g.column("one_sum"),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"],
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"],
    ).map_batches(key_customer, batch_format="pyarrow", zero_copy_batch=True)

    cells = grouped_aggregate(
        hash_exchange(od.union(cu), "c_custkey", cell_partials, n_parts),
        ["segment", "priority"],
        [("sum", "observed", "observed")],
    ).to_pandas()  # bounded: 5 segments x 5 priorities

    n = int(cells["observed"].sum())
    row_tot = cells.groupby("segment")["observed"].sum().to_dict()
    col_tot = cells.groupby("priority")["observed"].sum().to_dict()
    cells = cells.sort_values(["segment", "priority"]).reset_index(drop=True)
    segs = cells["segment"].tolist()
    pris = cells["priority"].tolist()
    obs = cells["observed"].astype(int).tolist()
    devs, terms, rows_t, cols_t = [], [], [], []
    for s, p, o in zip(segs, pris, obs):
        r, c = int(row_tot[s]), int(col_tot[p])
        dev = n * o - r * c  # exact int64 (≤ ~1e11 at sf0.1)
        devs.append(dev)
        # identical float expression on both engines: ((dev²)/n)/r/c
        terms.append(float(dev) * float(dev) / float(n) / float(r)
                     / float(c))
        rows_t.append(r)
        cols_t.append(c)
    return pa.table({
        "segment": pa.array(segs, type=pa.string()),
        "priority": pa.array(pris, type=pa.string()),
        "observed": pa.array(obs, type=pa.int64()),
        "row_total": pa.array(rows_t, type=pa.int64()),
        "col_total": pa.array(cols_t, type=pa.int64()),
        "dev": pa.array(devs, type=pa.int64()),
        "chi2_term": pa.array(terms, type=pa.float64()),
    })


SQL_SEGMENT_PRIORITY_INDEPENDENCE = """
WITH j AS (
  SELECT c.c_mktsegment AS segment, o.o_orderpriority AS priority
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
),
cell AS (
  SELECT segment, priority, CAST(COUNT(*) AS BIGINT) AS observed
  FROM j GROUP BY 1, 2
),
tot AS (SELECT SUM(observed) AS n FROM cell),
rt AS (SELECT segment, SUM(observed) AS r FROM cell GROUP BY 1),
ct AS (SELECT priority, SUM(observed) AS c FROM cell GROUP BY 1)
SELECT cell.segment, cell.priority, cell.observed,
       CAST(rt.r AS BIGINT) AS row_total,
       CAST(ct.c AS BIGINT) AS col_total,
       CAST(tot.n * cell.observed - rt.r * ct.c AS BIGINT) AS dev,
       CAST(tot.n * cell.observed - rt.r * ct.c AS DOUBLE)
         * CAST(tot.n * cell.observed - rt.r * ct.c AS DOUBLE)
         / CAST(tot.n AS DOUBLE) / CAST(rt.r AS DOUBLE)
         / CAST(ct.c AS DOUBLE) AS chi2_term
FROM cell
JOIN rt USING (segment)
JOIN ct USING (priority)
CROSS JOIN tot
ORDER BY cell.segment, cell.priority
"""


def build_queries_ext109() -> dict:
    return {
        "cheapest_supplier_q2": q_cheapest_supplier_q2,
        "segment_priority_independence": q_segment_priority_independence,
    }


def build_oracles_ext109() -> dict:
    return {
        "cheapest_supplier_q2": SQL_CHEAPEST_SUPPLIER_Q2,
        "segment_priority_independence": SQL_SEGMENT_PRIORITY_INDEPENDENCE,
    }
