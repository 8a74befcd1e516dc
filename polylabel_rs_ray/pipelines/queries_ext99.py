"""Round-3 extension operators, batch 99: supplier lead times and
vocabulary growth.

``supplier_leadtime_stats`` — the supply-chain KPI: per supplier, the
distribution moments of lead time (ship date minus order date, whole
days): n, Σ, Σ², min, max — exact integers.  Order dates attach to
lineitems through one co-partitioned INNER exchange on orderkey; the
supplier rollup is a bounded aggregate.

``vocab_growth_curve`` — the Heaps-law growth curve measured exactly:
distinct vocabulary size after the first 10% / 50% / 100% of
documents (doc_id order).  Each word's FIRST document is a
min-aggregate through the string-key combine; the curve is then three
threshold counts over the bounded vocabulary — no prefix scan, no
resort.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

DAY_US = 86_400_000_000
GROWTH_FRACTIONS = ((1, 10), (1, 2), (1, 1))  # 10%, 50%, 100%


def q_supplier_leadtime_stats(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    from .queries_ext60 import _attach_inner

    import ray

    def key_li(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy().astype(np.int64)
        n = len(k)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(k, type=pa.int64()),
            "l_suppkey": pc.cast(batch.column("l_suppkey"), pa.int64()),
            "ship_us": pc.cast(batch.column("l_shipdate"), pa.int64()),
            "order_us": pa.nulls(n, type=pa.int64()),
        })

    def key_orders(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(k)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(k, type=pa.int64()),
            "l_suppkey": pa.nulls(n, type=pa.int64()),
            "ship_us": pa.nulls(n, type=pa.int64()),
            "order_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(key_li, batch_format="pyarrow", zero_copy_batch=True)
    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_exchange(
        li.union(od), "o_orderkey", lambda g: _attach_inner(g, "o_orderkey"), n_parts,
    )

    def leadtime(batch: pa.Table) -> pa.Table:
        ship = batch.column("ship_us").to_numpy().astype(np.int64)
        order = batch.column("order_us").to_numpy().astype(np.int64)
        lt = (ship - order) // DAY_US
        return pa.table({
            "s_suppkey": batch.column("l_suppkey"),
            "lt": pa.array(lt, type=pa.int64()),
            "lt2": pa.array(lt * lt, type=pa.int64()),
        })

    return grouped_aggregate(
        joined.map_batches(leadtime, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["s_suppkey"],
        [("count", None, "n_shipments"), ("sum", "lt", "sum_days"),
         ("sum", "lt2", "sumsq_days"), ("min", "lt", "min_days"),
         ("max", "lt", "max_days")],
    )


SQL_SUPPLIER_LEADTIME_STATS = f"""
WITH j AS (
  -- FLOOR, not //: DuckDB integer // truncates toward zero and lead
  -- times go NEGATIVE on this data (they are exact day multiples here,
  -- but the floor form matches numpy semantics unconditionally)
  SELECT l.l_suppkey AS s_suppkey,
         CAST(FLOOR((CAST(epoch_us(l.l_shipdate) AS BIGINT)
                     - CAST(epoch_us(o.o_orderdate) AS BIGINT))
                    * 1.0 / {DAY_US}) AS BIGINT) AS lt
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
)
SELECT s_suppkey,
       CAST(COUNT(*) AS BIGINT) AS n_shipments,
       CAST(SUM(lt) AS BIGINT) AS sum_days,
       CAST(SUM(lt * lt) AS BIGINT) AS sumsq_days,
       CAST(MIN(lt) AS BIGINT) AS min_days,
       CAST(MAX(lt) AS BIGINT) AS max_days
FROM j GROUP BY s_suppkey
"""


def q_vocab_growth_curve(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def first_doc(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        ids: list[int] = []
        for i, t in zip(batch.column("doc_id").to_numpy().astype(np.int64),
                        batch.column("text").to_pylist()):
            for w in set((t or "").lower().split()):
                words.append(w)
                ids.append(int(i))
        t2 = pa.table({
            "word": pa.array(words, type=pa.string()),
            "doc": pa.array(ids, type=pa.int64()),
        })
        out = t2.group_by(["word"]).aggregate([("doc", "min")])
        return pa.table({
            "word": out.column("word"),
            "first_doc": pc.cast(out.column("doc_min"), pa.int64()),
        })

    first = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
        .map_batches(first_doc, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["word"], [("min", "first_doc", "first_doc")],
    ).to_pandas()  # bounded: vocabulary

    import pandas as pd

    fd = first["first_doc"].to_numpy().astype(np.int64)
    rows = []
    for num, den in GROWTH_FRACTIONS:
        cutoff = (num * n_docs) // den  # first `cutoff` docs: id < cutoff
        rows.append({
            "frac_num": num, "frac_den": den,
            "n_docs_prefix": cutoff,
            "vocab_size": int((fd < cutoff).sum()),
        })
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SQL_VOCAB_GROWTH_CURVE = rf"""
WITH first AS (
  SELECT w AS word, MIN(doc_id) AS first_doc
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS t
        FROM documents),
       LATERAL (SELECT unnest(t) AS w)
  GROUP BY w
),
n AS (SELECT COUNT(*) AS nd FROM documents),
fr AS (
  SELECT * FROM (VALUES {', '.join(f'({num}, {den})' for num, den in GROWTH_FRACTIONS)})
    AS t(frac_num, frac_den)
)
SELECT CAST(fr.frac_num AS BIGINT) AS frac_num,
       CAST(fr.frac_den AS BIGINT) AS frac_den,
       CAST((fr.frac_num * n.nd) // fr.frac_den AS BIGINT) AS n_docs_prefix,
       CAST((SELECT COUNT(*) FROM first
             WHERE first_doc < (fr.frac_num * n.nd) // fr.frac_den)
            AS BIGINT) AS vocab_size
FROM fr, n
"""


def build_queries_ext99() -> dict:
    return {
        "supplier_leadtime_stats": q_supplier_leadtime_stats,
        "vocab_growth_curve": q_vocab_growth_curve,
    }


def build_oracles_ext99() -> dict:
    return {
        "supplier_leadtime_stats": SQL_SUPPLIER_LEADTIME_STATS,
        "vocab_growth_curve": SQL_VOCAB_GROWTH_CURVE,
    }
