"""Round-3 extension operators, batch 101: coverage-gap detection and
market concentration.

``missing_hours_audit`` — the monitoring question "when was the
pipeline dark?": over the full hour grid spanned by the event stream,
how many hours saw zero events, and the longest consecutive dark
streak (gaps-and-islands on the COMPLEMENT of the occupancy grid).
The hour histogram is bounded; the streak folds with the same island
arithmetic as the activity-coverage op, flipped.

``supplier_hhi`` — the Herfindahl-Hirschman concentration index of
shipment volume across suppliers, as the exact integer pair
(Σ n_i², (Σ n_i)²) — HHI is their ratio; 1/n_suppliers at perfect
balance, 1 at monopoly.  Bounded supplier aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

HOUR_US = 3_600_000_000


def q_missing_hours_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def hourly(batch: pa.Table) -> pa.Table:
        hr = pc.cast(batch.column("ts"), pa.int64()).to_numpy() // HOUR_US
        t = pa.table({"hr": pa.array(hr, type=pa.int64())})
        out = t.group_by(["hr"]).aggregate([("hr", "count")])
        return pa.table({
            "hr": out.column("hr"),
            "n": pc.cast(out.column("hr_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
        .map_batches(hourly, batch_format="pyarrow", zero_copy_batch=True),
        ["hr"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: hour grid

    hrs = np.sort(hist["hr"].to_numpy().astype(np.int64))
    lo, hi = int(hrs.min()), int(hrs.max())
    total = hi - lo + 1
    occupied = np.zeros(total, dtype=bool)
    occupied[hrs - lo] = True
    empty = ~occupied
    # longest empty streak: islands over the complement
    longest = 0
    cur = 0
    for e in empty:
        cur = cur + 1 if e else 0
        if cur > longest:
            longest = cur
    import pandas as pd

    return pd.DataFrame({
        "n_hours_total": [np.int64(total)],
        "n_hours_empty": [np.int64(int(empty.sum()))],
        "longest_empty_streak": [np.int64(longest)],
    })


SQL_MISSING_HOURS_AUDIT = f"""
WITH ev AS (
  SELECT DISTINCT CAST(epoch_us(ts) AS BIGINT) // {HOUR_US} AS hr
  FROM events
),
bounds AS (SELECT MIN(hr) AS lo, MAX(hr) AS hi FROM ev),
grid AS (SELECT unnest(generate_series(lo, hi)) AS hr FROM bounds),
x AS (
  SELECT g.hr, e.hr IS NOT NULL AS occ
  FROM grid g LEFT JOIN ev e ON g.hr = e.hr
),
flagged AS (
  SELECT hr, occ,
         CASE WHEN occ <> COALESCE(LAG(occ) OVER (ORDER BY hr), NOT occ)
              THEN 1 ELSE 0 END AS boundary
  FROM x
),
runs AS (
  SELECT occ, SUM(boundary) OVER (ORDER BY hr
                                  ROWS UNBOUNDED PRECEDING) AS rid
  FROM flagged
),
streaks AS (
  SELECT rid, occ, COUNT(*) AS len FROM runs GROUP BY rid, occ
)
SELECT CAST((SELECT COUNT(*) FROM grid) AS BIGINT) AS n_hours_total,
       CAST((SELECT COUNT(*) FROM x WHERE NOT occ) AS BIGINT)
         AS n_hours_empty,
       CAST(COALESCE((SELECT MAX(len) FROM streaks WHERE NOT occ), 0)
            AS BIGINT) AS longest_empty_streak
"""


def q_supplier_hhi(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    per_supp = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_suppkey"])
        .map_batches(
            lambda b: pa.table({
                "s": pc.cast(b.column("l_suppkey"), pa.int64()),
            }), batch_format="pyarrow", zero_copy_batch=True),
        ["s"], [("count", None, "n")],
    ).to_pandas()  # bounded: supplier dim

    c = per_supp["n"].to_numpy().astype(np.int64)
    import pandas as pd

    return pd.DataFrame({
        "n_suppliers": [np.int64(len(c))],
        "total_shipments": [np.int64(int(c.sum()))],
        "hhi_num": [np.int64(int((c * c).sum()))],
        "hhi_den": [np.int64(int(c.sum()) ** 2)],
    })


SQL_SUPPLIER_HHI = """
WITH s AS (
  SELECT l_suppkey, CAST(COUNT(*) AS BIGINT) AS n
  FROM lineitem GROUP BY l_suppkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_suppliers,
       CAST(SUM(n) AS BIGINT) AS total_shipments,
       CAST(SUM(n * n) AS BIGINT) AS hhi_num,
       CAST(SUM(n) * SUM(n) AS BIGINT) AS hhi_den
FROM s
"""


def build_queries_ext101() -> dict:
    return {
        "missing_hours_audit": q_missing_hours_audit,
        "supplier_hhi": q_supplier_hhi,
    }


def build_oracles_ext101() -> dict:
    return {
        "missing_hours_audit": SQL_MISSING_HOURS_AUDIT,
        "supplier_hhi": SQL_SUPPLIER_HHI,
    }
