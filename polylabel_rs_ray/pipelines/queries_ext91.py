"""Round-3 extension operators, batch 91: rank concordance and
rectilinearity.

``nation_rank_concordance`` — rank-correlation statistics between two
nation rankings (revenue rank vs customer-count rank): Kendall's
concordant / discordant / tied pair counts and the Spearman footrule
distance Σ|rank_a - rank_b| — all exact integers over the bounded
nation domain (the rank-agreement complement to the Mann-Whitney AUC
op).  Ranks are dense by (value desc, nationkey asc), so ties in the
underlying values break deterministically.

``rectilinearity_stats`` — how axis-aligned is a polygon's boundary?
Rectilinearity = axis-aligned Manhattan edge length over total
Manhattan edge length, as an EXACT integer-valued rational (Manhattan
length |dx|+|dy| is dyadic-exact; Euclidean lengths would need
sqrts).  1/1-reduced? No — emitted unreduced with deterministic
numerator/denominator, per-fixture constants from an independent
twin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


def q_nation_rank_concordance(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    from .queries_ext60 import _attach_inner

    import ray

    # revenue per nation: orders x customer co-partitioned on custkey
    def key_orders(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        n = len(ck)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "c_custkey": pa.array(ck, type=pa.int64()),
            "cents": pc.cast(
                pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
                pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
        })

    def key_cust(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        n = len(ck)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "c_custkey": pa.array(ck, type=pa.int64()),
            "cents": pa.nulls(n, type=pa.int64()),
            "c_nationkey": pc.cast(batch.column("c_nationkey"), pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_exchange(
        od.union(cu), "c_custkey", lambda g: _attach_inner(g, "c_custkey"), n_parts,
    )
    rev = grouped_aggregate(
        joined.select_columns(["c_nationkey", "cents"]),
        ["c_nationkey"], [("sum", "cents", "revenue_cents")],
    ).to_pandas()

    cust = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_nationkey"])
        .map_batches(
            lambda b: pa.table({
                "c_nationkey": pc.cast(b.column("c_nationkey"), pa.int64()),
            }), batch_format="pyarrow", zero_copy_batch=True),
        ["c_nationkey"], [("count", None, "n_customers")],
    ).to_pandas()

    import pandas as pd

    m = rev.merge(cust, on="c_nationkey", how="outer").fillna(0)
    nk = m["c_nationkey"].to_numpy().astype(np.int64)
    rv = m["revenue_cents"].to_numpy().astype(np.int64)
    nc = m["n_customers"].to_numpy().astype(np.int64)
    # dense ranks by (value desc, nationkey asc)
    rank_a = np.empty(len(nk), dtype=np.int64)
    rank_a[np.lexsort((nk, -rv))] = np.arange(1, len(nk) + 1)
    rank_b = np.empty(len(nk), dtype=np.int64)
    rank_b[np.lexsort((nk, -nc))] = np.arange(1, len(nk) + 1)
    conc = disc = 0
    n = len(nk)
    for i in range(n):
        for j in range(i + 1, n):
            s = (rank_a[i] - rank_a[j]) * (rank_b[i] - rank_b[j])
            if s > 0:
                conc += 1
            elif s < 0:
                disc += 1
    footrule = int(np.abs(rank_a - rank_b).sum())
    return pd.DataFrame({
        "n_nations": [np.int64(n)],
        "n_concordant": [np.int64(conc)],
        "n_discordant": [np.int64(disc)],
        "footrule": [np.int64(footrule)],
    })


SQL_NATION_RANK_CONCORDANCE = """
WITH rev AS (
  SELECT c.c_nationkey,
         CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
  GROUP BY c.c_nationkey
),
cust AS (
  SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS n_customers
  FROM customer GROUP BY c_nationkey
),
m AS (
  SELECT COALESCE(r.c_nationkey, c.c_nationkey) AS nk,
         COALESCE(r.revenue_cents, 0) AS rv,
         COALESCE(c.n_customers, 0) AS nc
  FROM rev r FULL OUTER JOIN cust c ON r.c_nationkey = c.c_nationkey
),
ranked AS (
  SELECT nk,
         ROW_NUMBER() OVER (ORDER BY rv DESC, nk ASC) AS rank_a,
         ROW_NUMBER() OVER (ORDER BY nc DESC, nk ASC) AS rank_b
  FROM m
),
pairs AS (
  SELECT (a.rank_a - b.rank_a) * (a.rank_b - b.rank_b) AS s
  FROM ranked a JOIN ranked b ON a.nk < b.nk
)
SELECT CAST((SELECT COUNT(*) FROM ranked) AS BIGINT) AS n_nations,
       CAST(SUM(CASE WHEN s > 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_concordant,
       CAST(SUM(CASE WHEN s < 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_discordant,
       CAST((SELECT SUM(ABS(rank_a - rank_b)) FROM ranked) AS BIGINT)
         AS footrule
FROM pairs
"""


# --------------------------------------------------------------------------
# rectilinearity_stats
# --------------------------------------------------------------------------


def _rectilinearity(ext: np.ndarray) -> tuple[float, float]:
    """(axis_manhattan, total_manhattan) over exterior edges — both exact
    for dyadic data; rectilinearity = num/den."""
    pts = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    x, y = pts[:, 0], pts[:, 1]
    dx = np.roll(x, -1) - x
    dy = np.roll(y, -1) - y
    man = np.abs(dx) + np.abs(dy)
    axis = man * ((dx == 0.0) | (dy == 0.0))
    return float(axis.sum()), float(man.sum())


def q_rectilinearity_stats(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        num = np.empty(len(polys), dtype=np.float64)
        den = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            num[i], den[i] = _rectilinearity(_norm_exterior(rings))
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "axis_manhattan": pa.array(num, type=pa.float64()),
            "total_manhattan": pa.array(den, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_rectilinearity(ext) -> tuple[float, float]:
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    axis = total = 0.0
    n = len(pts)
    for i in range(n):
        dx = pts[(i + 1) % n][0] - pts[i][0]
        dy = pts[(i + 1) % n][1] - pts[i][1]
        m = abs(dx) + abs(dy)
        total += m
        if dx == 0.0 or dy == 0.0:
            axis += m
    return axis, total


def _sql_rectilinearity_stats() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cn, cd = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        num, den = _twin_rectilinearity(ext)
        cn.append(f"WHEN {f} THEN {num!r}")
        cd.append(f"WHEN {f} THEN {den!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cn)} END AS axis_manhattan,
               CASE doc_id % {n} {' '.join(cd)} END AS total_manhattan
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext91() -> dict:
    return {
        "nation_rank_concordance": q_nation_rank_concordance,
        "rectilinearity_stats": q_rectilinearity_stats,
    }


def build_oracles_ext91() -> dict:
    return {
        "nation_rank_concordance": SQL_NATION_RANK_CONCORDANCE,
        "rectilinearity_stats": _sql_rectilinearity_stats(),
    }
