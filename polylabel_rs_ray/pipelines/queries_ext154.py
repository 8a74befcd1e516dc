"""Round-3 extension operators, batch 154: MMR diversified retrieval +
customer-cohort LTV triangle.

``mmr_topk`` — retrieve-then-rerank with maximal marginal relevance, the
diversity-aware retrieval op of a RAG/data-curation stack: the query is
vector 0's SQ8 code row; relevance is the exact integer code dot
product; the candidate pool is the top-POOL=64 by (rel DESC, vec_id ASC)
excluding the query itself; then K=10 greedy MMR steps with λ=1/2, whose
argmax is equivalent to maximizing the INTEGER ``rel − max_{s∈S}
sim(v,s)`` (ties by vec_id ASC).  Everything after quantization is
integer arithmetic, so the oracle — the codes CTE + K unrolled
select/update-running-max CTE pairs, machine-generated below — is
bit-exact.  Distributed shape: per-batch quantize + matmul relevance
with batch-local top-POOL partials (one driver merge of bounded
partials), one id-filtered pass to collect the 64 candidate code rows,
then the O(K·POOL·dim) greedy on the driver.  At 10^12 docs the pool
collection is the standard top-k exchange; the greedy stays O(1).

``order_cohort_ltv`` — the classic LTV triangle: orders bucketed by the
customer's acquisition month (calendar month of their first order,
months-since-epoch ints via ``datetime64[M]`` == SQL EXTRACT arithmetic)
and the month offset since acquisition, with exact cent revenue.  Pass 1
reduces per-customer first-month (hash aggregate); the bounded
(custkey → cohort) map is broadcast via ``ray.put`` (small side; the
10^12-row path co-partitions both sides on custkey hash); pass 2 is one
map-side-combined aggregate into the bounded (cohort × offset) triangle.

Reference anchors: similarity + calendar families (SURVEY.md §2.4);
siblings: sq8_topk (integer ADC scoring), cohort_retention
(events cohorts), doc_merkle_root (machine-generated unrolled SQL).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MMR_POOL = 64
MMR_K = 10
QUERY_VEC_ID = 0


# --------------------------------------------------------------------------
# mmr_topk
# --------------------------------------------------------------------------


def q_mmr_topk(sf_dir: str):
    from .queries_ext32 import _minmax, _quantize
    from .sim import embedding_matrix

    import ray
    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)
    path = f"{sf_dir}/embeddings.parquet"

    # query codes: the one-row filtered read (id-pruned at the scan)
    qrow = (
        ray.data.read_parquet(path, columns=["vec_id", "embedding"])
        .filter(expr=f"vec_id == {QUERY_VEC_ID}")
        .to_pandas()
    )
    qc = _quantize(
        np.asarray(list(qrow["embedding"]), dtype=np.float64), mn, span
    )[0]
    qc_ref = ray.put(qc)

    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])

    def rel_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(qc_ref)
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        keep = ids != QUERY_VEC_ID
        c = _quantize(embedding_matrix(batch), mn, span)[keep]
        ids = ids[keep]
        rel = c @ q
        # batch-local top-POOL by (rel DESC, vec_id ASC): packed argsort
        order = np.lexsort((ids, -rel))[:MMR_POOL]
        return pa.table({
            "vec_id": pa.array(ids[order], type=pa.int64()),
            "rel": pa.array(rel[order], type=pa.int64()),
        })

    parts = ds.map_batches(rel_topk, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    order = np.lexsort((parts["vec_id"].to_numpy(),
                        -parts["rel"].to_numpy()))[:MMR_POOL]
    cand_ids = parts["vec_id"].to_numpy().astype(np.int64)[order]
    cand_rel = parts["rel"].to_numpy().astype(np.int64)[order]

    # collect the candidate code rows (bounded: POOL x dim ints)
    cid_sorted = np.sort(cand_ids)
    cid_ref = ray.put(cid_sorted)

    def collect(batch: pa.Table) -> pa.Table:
        want = ray.get(cid_ref)
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        hit = np.isin(ids, want)
        if not hit.any():
            return pa.table({
                "vec_id": pa.array([], type=pa.int64()),
                "codes": pa.array([], type=pa.list_(pa.int64())),
            })
        c = _quantize(embedding_matrix(batch), mn, span)[hit]
        return pa.table({
            "vec_id": pa.array(ids[hit], type=pa.int64()),
            "codes": pa.array(list(c), type=pa.list_(pa.int64())),
        })

    got = ds.map_batches(collect, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    code_of = {int(r.vec_id): np.asarray(r.codes, dtype=np.int64)
               for r in got.itertuples()}
    cmat = np.stack([code_of[int(v)] for v in cand_ids])  # (POOL, dim)

    # greedy MMR on the bounded pool (exact ints)
    maxsim = np.zeros(len(cand_ids), dtype=np.int64)
    picked = np.zeros(len(cand_ids), dtype=bool)
    ranks, vids, rels, msims, scores = [], [], [], [], []
    for k in range(1, MMR_K + 1):
        score = cand_rel - maxsim
        score_masked = np.where(picked, np.int64(-2**62), score)
        order = np.lexsort((cand_ids, -score_masked))
        i = int(order[0])
        ranks.append(k)
        vids.append(int(cand_ids[i]))
        rels.append(int(cand_rel[i]))
        msims.append(int(maxsim[i]))
        scores.append(int(score[i]))
        picked[i] = True
        sims = cmat @ cmat[i]
        maxsim = np.maximum(maxsim, sims)
    return ray.data.from_arrow(pa.table({
        "sel_rank": pa.array(ranks, type=pa.int64()),
        "vec_id": pa.array(vids, type=pa.int64()),
        "rel": pa.array(rels, type=pa.int64()),
        "maxsim": pa.array(msims, type=pa.int64()),
        "score": pa.array(scores, type=pa.int64()),
    }))


def _sql_mmr_topk() -> str:
    # every CTE is MATERIALIZED: the step chain references earlier steps
    # repeatedly, and inlined (non-materialized) CTEs re-evaluate the
    # whole prefix per reference — exponential replanning across K steps
    sql = f"""
WITH dims AS MATERIALIZED (
  SELECT vec_id,
         generate_subscripts(embedding, 1) AS d,
         CAST(UNNEST(embedding) AS DOUBLE) AS x
  FROM embeddings
), stats AS MATERIALIZED (
  SELECT d, MIN(x) AS mn,
         CASE WHEN MAX(x) > MIN(x) THEN MAX(x) - MIN(x) ELSE 1.0 END AS span
  FROM dims GROUP BY d
), codes AS MATERIALIZED (
  SELECT v.vec_id, v.d,
         LEAST(255, GREATEST(0,
             CAST(FLOOR(((v.x - s.mn) * 255.0) / s.span) AS BIGINT))) AS code
  FROM dims v JOIN stats s USING (d)
), qv AS MATERIALIZED (
  SELECT d, code FROM codes WHERE vec_id = {QUERY_VEC_ID}
), rel AS MATERIALIZED (
  SELECT c.vec_id, SUM(c.code * qv.code) AS rel
  FROM codes c JOIN qv USING (d)
  WHERE c.vec_id <> {QUERY_VEC_ID}
  GROUP BY 1
), cand AS MATERIALIZED (
  SELECT vec_id, rel FROM (
    SELECT vec_id, rel,
           ROW_NUMBER() OVER (ORDER BY rel DESC, vec_id ASC) AS rn
    FROM rel
  ) WHERE rn <= {MMR_POOL}
), ccodes AS MATERIALIZED (
  SELECT c.vec_id, c.d, c.code FROM codes c
  WHERE c.vec_id IN (SELECT vec_id FROM cand)
), m0 AS MATERIALIZED (
  SELECT vec_id, CAST(0 AS BIGINT) AS maxsim FROM cand
)"""
    for k in range(1, MMR_K + 1):
        prev_sel = " UNION ALL ".join(
            f"SELECT vec_id FROM s{j}" for j in range(1, k)
        )
        not_in = (f"AND c.vec_id NOT IN ({prev_sel})" if k > 1 else "")
        sql += f"""
, s{k} AS MATERIALIZED (
  SELECT c.vec_id, c.rel, m.maxsim, c.rel - m.maxsim AS score
  FROM cand c JOIN m{k - 1} m USING (vec_id)
  WHERE TRUE {not_in}
  ORDER BY c.rel - m.maxsim DESC, c.vec_id ASC
  LIMIT 1
), d{k} AS MATERIALIZED (
  SELECT ca.vec_id, SUM(ca.code * cs.code) AS sim
  FROM ccodes ca
  JOIN ccodes cs ON cs.vec_id = (SELECT vec_id FROM s{k})
                AND cs.d = ca.d
  GROUP BY 1
), m{k} AS MATERIALIZED (
  SELECT m.vec_id, GREATEST(m.maxsim, d.sim) AS maxsim
  FROM m{k - 1} m JOIN d{k} d USING (vec_id)
)"""
    finals = " UNION ALL ".join(
        f"SELECT {k} AS sel_rank, vec_id, rel, maxsim, score FROM s{k}"
        for k in range(1, MMR_K + 1)
    )
    sql += f"""
SELECT CAST(sel_rank AS BIGINT) AS sel_rank,
       CAST(vec_id AS BIGINT) AS vec_id,
       CAST(rel AS BIGINT) AS rel, CAST(maxsim AS BIGINT) AS maxsim,
       CAST(score AS BIGINT) AS score
FROM ({finals})
"""
    return sql


# --------------------------------------------------------------------------
# order_cohort_ltv
# --------------------------------------------------------------------------


def q_order_cohort_ltv(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    path = f"{sf_dir}/orders.parquet"
    ds = ray.data.read_parquet(path, columns=["o_custkey", "o_orderdate",
                                              "o_totalprice"])

    def months(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy() \
            .astype("datetime64[us]")
        m = ts.astype("datetime64[M]").astype(np.int64)
        return pa.table({
            "custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
            "m": pa.array(m, type=pa.int64()),
            "cents": pa.array(
                np.round(batch.column("o_totalprice").to_numpy() * 100.0)
                .astype(np.int64), type=pa.int64()),
        })

    om = ds.map_batches(months, batch_format="pyarrow", zero_copy_batch=True)

    coh = grouped_aggregate(
        om.select_columns(["custkey", "m"]),
        ["custkey"], [("min", "m", "cm")],
    ).to_pandas().sort_values("custkey")  # small side; broadcast below
    ck = coh["custkey"].to_numpy().astype(np.int64)
    cm = coh["cm"].to_numpy().astype(np.int64)
    coh_ref = ray.put((ck, cm))

    def attach(batch: pa.Table) -> pa.Table:
        k, c = ray.get(coh_ref)
        cust = batch.column("custkey").to_numpy().astype(np.int64)
        cohort = c[np.searchsorted(k, cust)]
        m = batch.column("m").to_numpy().astype(np.int64)
        t = pa.table({
            "cohort_month": pa.array(cohort, type=pa.int64()),
            "month_offset": pa.array(m - cohort, type=pa.int64()),
            "one": pa.array(np.ones(len(m), dtype=np.int64)),
            "cents": batch.column("cents"),
        })
        out = t.group_by(["cohort_month", "month_offset"]).aggregate(
            [("one", "sum"), ("cents", "sum")])
        return pa.table({
            "cohort_month": out.column("cohort_month"),
            "month_offset": out.column("month_offset"),
            "n": pc.cast(out.column("one_sum"), pa.int64()),
            "rev": pc.cast(out.column("cents_sum"), pa.int64()),
        })

    return grouped_aggregate(
        om.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True),
        ["cohort_month", "month_offset"],
        [("sum", "n", "n_orders"), ("sum", "rev", "rev_cents")],
    )


SQL_ORDER_COHORT_LTV = """
WITH om AS (
    SELECT o_custkey,
           (EXTRACT(year FROM o_orderdate) - 1970) * 12
               + EXTRACT(month FROM o_orderdate) - 1 AS m,
           CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
    FROM orders
),
coh AS (SELECT o_custkey, MIN(m) AS cm FROM om GROUP BY 1)
SELECT CAST(coh.cm AS BIGINT) AS cohort_month,
       CAST(om.m - coh.cm AS BIGINT) AS month_offset,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(om.cents) AS BIGINT) AS rev_cents
FROM om JOIN coh USING (o_custkey)
GROUP BY 1, 2
"""


def build_queries_ext154() -> dict:
    return {
        "mmr_topk": q_mmr_topk,
        "order_cohort_ltv": q_order_cohort_ltv,
    }


def build_oracles_ext154() -> dict:
    return {
        "mmr_topk": _sql_mmr_topk(),
        "order_cohort_ltv": SQL_ORDER_COHORT_LTV,
    }
