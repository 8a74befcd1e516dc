"""Round-3 extension operators, batch 74: incremental view maintenance
and quality-filter funnels.

``ivm_daily_revenue`` — incremental aggregate maintenance: a daily
revenue view maintained from the BASE aggregate plus a CDC delta
(planted deterministic update/delete classes, the ext31 convention:
``key % 7 == 0`` price bump, ``key % 13 == 3`` delete), WITHOUT
rescanning base rows — each delta row contributes ``new - old`` to
its day's aggregate, deletes contribute ``-old``.  The oracle
recomputes the view from the merged table from scratch; equality IS
the view-maintenance correctness proof.  Both sides are exact integer
cents.

``filter_funnel`` — the LLM-corpus quality gauntlet as a funnel: how
many documents survive each successive filter (min length ->
mean-word-length band -> unique-word ratio floor), evaluated in ONE
pass per batch emitting cumulative-stage counters (a 4-int partial),
summed through the single-row map-side combine.  Every predicate
replays exactly in SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000

# planted CDC classes (shared modulo convention with ext31's upsert)
UPD_MOD, UPD_EQ = 7, 0
DEL_MOD, DEL_EQ = 13, 3
PRICE_BUMP_CENTS = 500

# funnel thresholds
MIN_CHARS = 200
MWL_LO, MWL_HI = 4.3, 4.7  # mean word length band
UNIQ_NUM, UNIQ_DEN = 2, 5  # unique-word ratio floor 2/5 (rational compare)


def q_ivm_daily_revenue(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def partials(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        day = pc.cast(batch.column("o_orderdate"),
                      pa.int64()).to_numpy() // DAY_US
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64()).to_numpy()
        is_del = (k % DEL_MOD) == DEL_EQ
        is_upd = ((k % UPD_MOD) == UPD_EQ) & ~is_del
        # base contribution: every row's old value
        # delta contribution:  update -> +BUMP, delete -> -old
        delta = np.where(is_upd, PRICE_BUMP_CENTS, 0) \
            - np.where(is_del, cents, 0)
        survivors = (~is_del).astype(np.int64)
        t = pa.table({
            "day": pa.array(day, type=pa.int64()),
            "base": pa.array(cents, type=pa.int64()),
            "delta": pa.array(delta, type=pa.int64()),
            "alive": pa.array(survivors, type=pa.int64()),
        })
        out = t.group_by(["day"]).aggregate([("base", "sum"),
                                             ("delta", "sum"),
                                             ("alive", "sum")])
        return pa.table({
            "day": out.column("day"),
            "base": pc.cast(out.column("base_sum"), pa.int64()),
            "delta": pc.cast(out.column("delta_sum"), pa.int64()),
            "alive": pc.cast(out.column("alive_sum"), pa.int64()),
        })

    agg = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderdate",
                                       "o_totalprice"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        ["day"],
        [("sum", "base", "base"), ("sum", "delta", "delta"),
         ("sum", "alive", "alive")],
    )

    def maintain(batch: pa.Table) -> pa.Table:
        # a day whose every order was deleted leaves the view entirely
        batch = batch.filter(pc.greater(batch.column("alive"), 0))
        base = batch.column("base").to_numpy().astype(np.int64)
        delta = batch.column("delta").to_numpy().astype(np.int64)
        return pa.table({
            "day": batch.column("day"),
            "revenue_cents": pa.array(base + delta, type=pa.int64()),
        })

    return agg.map_batches(maintain, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_IVM_DAILY_REVENUE = f"""
WITH merged AS (
  SELECT CAST(epoch_us(o_orderdate) AS BIGINT) // {DAY_US} AS day,
         CASE WHEN (o_orderkey % {UPD_MOD}) = {UPD_EQ}
              THEN CAST(ROUND(o_totalprice * 100) AS BIGINT)
                   + {PRICE_BUMP_CENTS}
              ELSE CAST(ROUND(o_totalprice * 100) AS BIGINT) END AS cents
  FROM orders
  WHERE (o_orderkey % {DEL_MOD}) <> {DEL_EQ}
)
SELECT day, CAST(SUM(cents) AS BIGINT) AS revenue_cents
FROM merged GROUP BY day
"""


def q_filter_funnel(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n0 = len(texts)
        n1 = n2 = n3 = 0
        for t in texts:
            t = t or ""
            if len(t) < MIN_CHARS:
                continue
            n1 += 1
            words = t.lower().split()
            total_len = sum(len(w) for w in words)
            nw = len(words)
            # mean word length band, compared as exact rationals
            if nw == 0 or not (MWL_LO * nw <= total_len <= MWL_HI * nw):
                continue
            n2 += 1
            if len(set(words)) * UNIQ_DEN < UNIQ_NUM * nw:
                continue
            n3 += 1
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n_docs": pa.array([n0], type=pa.int64()),
            "pass_length": pa.array([n1], type=pa.int64()),
            "pass_word_len": pa.array([n2], type=pa.int64()),
            "pass_unique_ratio": pa.array([n3], type=pa.int64()),
        })

    agg = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["text"])
        .map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["k"],
        [("sum", c, c) for c in
         ("n_docs", "pass_length", "pass_word_len", "pass_unique_ratio")],
    )
    return agg.select_columns(["n_docs", "pass_length", "pass_word_len",
                               "pass_unique_ratio"])


SQL_FILTER_FUNNEL = rf"""
WITH t AS (
  SELECT text,
         length(text) AS n_chars,
         regexp_extract_all(lower(text), '\S+') AS words
  FROM documents
),
m AS (
  SELECT n_chars,
         len(words) AS nw,
         (SELECT COALESCE(SUM(length(w)), 0)
          FROM unnest(words) AS u(w)) AS total_len,
         (SELECT COUNT(DISTINCT w) FROM unnest(words) AS u(w)) AS uniq
  FROM t
),
f AS (
  SELECT n_chars >= {MIN_CHARS} AS p1,
         n_chars >= {MIN_CHARS}
           AND nw > 0
           AND {MWL_LO} * nw <= total_len AND total_len <= {MWL_HI} * nw
           AS p2,
         n_chars >= {MIN_CHARS}
           AND nw > 0
           AND {MWL_LO} * nw <= total_len AND total_len <= {MWL_HI} * nw
           AND uniq * {UNIQ_DEN} >= {UNIQ_NUM} * nw AS p3
  FROM m
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN p1 THEN 1 ELSE 0 END) AS BIGINT) AS pass_length,
       CAST(SUM(CASE WHEN p2 THEN 1 ELSE 0 END) AS BIGINT) AS pass_word_len,
       CAST(SUM(CASE WHEN p3 THEN 1 ELSE 0 END) AS BIGINT)
         AS pass_unique_ratio
FROM f
"""


def build_queries_ext74() -> dict:
    return {
        "ivm_daily_revenue": q_ivm_daily_revenue,
        "filter_funnel": q_filter_funnel,
    }


def build_oracles_ext74() -> dict:
    return {
        "ivm_daily_revenue": SQL_IVM_DAILY_REVENUE,
        "filter_funnel": SQL_FILTER_FUNNEL,
    }
