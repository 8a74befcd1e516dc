"""Round-3 extension operators, batch 94: spatial central tendency and
Benford forensics.

``spatial_center_stats`` — the two classic centers of a point cloud:
the MEAN center as an exact pair (Σx, Σy, n — dyadic coordinate sums,
the consumer divides) and the MEDIAN center (coordinate-wise lower
medians — exact order statistics, deterministic (value, doc) order).
Both fold over the label table; at corpus scale Σ/n is a map-side
combine and the medians come from the histogram-refinement machinery
the quantile ops already use.

``benford_audit`` — the data-forensics classic: the first significant
digit distribution of order totals (in cents), counts per digit 1-9.
Digit extraction is pure integer arithmetic (divide by 10 until one
digit remains) in the engine and string slicing in SQL — same answer,
different mechanisms.  Synthetic uniform prices will NOT follow
Benford; the audit reports the distribution, the test pins only
structural invariants.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def q_spatial_center_stats(sf_dir: str):
    from .queries import _dyadic_labeled

    pts = _dyadic_labeled(sf_dir).to_pandas()  # dim-scale label table
    x = pts["label_x"].to_numpy()
    y = pts["label_y"].to_numpy()
    doc = pts["doc_num"].to_numpy().astype(np.int64)
    n = len(x)
    # lower median by (coord, doc_num) order — deterministic under ties
    ix = np.lexsort((doc, x))
    iy = np.lexsort((doc, y))
    med_x = float(x[ix[(n - 1) // 2]])
    med_y = float(y[iy[(n - 1) // 2]])
    import pandas as pd

    return pd.DataFrame({
        "n_points": [np.int64(n)],
        "sum_x": [float(x.sum())],
        "sum_y": [float(y.sum())],
        "median_x": [med_x],
        "median_y": [med_y],
    })


def _sql_spatial_center_stats() -> str:
    from .queries import _sql_dyadic_labels_cte

    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        rx AS (
          SELECT label_x,
                 ROW_NUMBER() OVER (ORDER BY label_x, doc_num) AS rk
          FROM labels
        ),
        ry AS (
          SELECT label_y,
                 ROW_NUMBER() OVER (ORDER BY label_y, doc_num) AS rk
          FROM labels
        ),
        n AS (SELECT COUNT(*) AS cnt FROM labels)
        SELECT CAST(n.cnt AS BIGINT) AS n_points,
               (SELECT SUM(label_x) FROM labels) AS sum_x,
               (SELECT SUM(label_y) FROM labels) AS sum_y,
               (SELECT label_x FROM rx, n WHERE rk = (n.cnt + 1) // 2)
                 AS median_x,
               (SELECT label_y FROM ry, n WHERE rk = (n.cnt + 1) // 2)
                 AS median_y
        FROM n
    """


def q_benford_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def digits(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64()).to_numpy().astype(np.int64)
        v = np.abs(cents)
        v = v[v > 0]
        while (m := v >= 10).any():
            v = np.where(m, v // 10, v)
        return pa.table({
            "digit": pa.array(v, type=pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_totalprice"])
        .map_batches(digits, batch_format="pyarrow", zero_copy_batch=True),
        ["digit"], [("count", None, "n_orders")],
    )


SQL_BENFORD_AUDIT = """
WITH cents AS (
  SELECT ABS(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS v FROM orders
)
SELECT CAST(CAST(LEFT(CAST(v AS VARCHAR), 1) AS BIGINT) AS BIGINT) AS digit,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM cents WHERE v > 0
GROUP BY 1
"""


def build_queries_ext94() -> dict:
    return {
        "spatial_center_stats": q_spatial_center_stats,
        "benford_audit": q_benford_audit,
    }


def build_oracles_ext94() -> dict:
    return {
        "spatial_center_stats": _sql_spatial_center_stats(),
        "benford_audit": SQL_BENFORD_AUDIT,
    }
