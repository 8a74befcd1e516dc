"""Round-3 extension operators, batch 97: functional-dependency
profiling and weekday seasonality.

``fd_violation_audit`` — data profiling's functional-dependency check:
does X determine Y?  For each candidate FD, the number of X-groups
with more than one Y value and the number of violating rows (rows
outside their group's majority Y, majority ties broken to the
lexicographically smallest Y — deterministic).  Audited FDs: char
bucket -> lang, source -> lang, lang -> source.  Bounded group
domains; per-(X, Y) counts flow through the string-capable combine.

``dow_seasonality_stats`` — the one-way ANOVA sufficient statistics
for weekday seasonality of order volume: per day-of-week, the number
of calendar days, the sum and sum of squares of the daily order
counts (zero-filled grid) — between/within variance and the F ratio
are consumer folds over these 7 exact-integer rows.  Day-of-week uses
the epoch-day mod 7 convention (day 0 = Thursday), mirrored in SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
FD_CHAR_BUCKET = 100


# (fd name, x extractor in engine handled below, SQL x expression, y column)
FDS = (
    ("char_bucket->lang", "bucket", f"n_chars // {FD_CHAR_BUCKET}", "lang"),
    ("source->lang", "source", "source", "lang"),
    ("lang->source", "lang", "lang", "source"),
)


def q_fd_violation_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def counts(batch: pa.Table) -> pa.Table:
        bucket = (batch.column("n_chars").to_numpy().astype(np.int64)
                  // FD_CHAR_BUCKET)
        lang = batch.column("lang").to_pylist()
        source = batch.column("source").to_pylist()
        xs: list[str] = []
        ys: list[str] = []
        fd: list[str] = []
        for b, lg, sc in zip(bucket, lang, source):
            fd.append(FDS[0][0]); xs.append(str(b)); ys.append(lg)
            fd.append(FDS[1][0]); xs.append(sc); ys.append(lg)
            fd.append(FDS[2][0]); xs.append(lg); ys.append(sc)
        t = pa.table({
            "fd": pa.array(fd, type=pa.string()),
            "x": pa.array(xs, type=pa.string()),
            "y": pa.array(ys, type=pa.string()),
        })
        out = t.group_by(["fd", "x", "y"]).aggregate([("y", "count")])
        return pa.table({
            "fd": out.column("fd"),
            "x": out.column("x"),
            "y": out.column("y"),
            "n": pc.cast(out.column("y_count"), pa.int64()),
        })

    xy = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["n_chars", "lang", "source"])
        .map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        ["fd", "x", "y"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: fd x X-domain x Y-domain

    import pandas as pd

    rows = []
    for fd_name, g in xy.groupby("fd"):
        n_groups = 0
        n_multi = 0
        n_rows = 0
        n_viol = 0
        for _, gx in g.groupby("x"):
            n_groups += 1
            total = int(gx["n"].sum())
            n_rows += total
            if len(gx) > 1:
                n_multi += 1
            best = gx.sort_values(["n", "y"],
                                  ascending=[False, True]).iloc[0]
            n_viol += total - int(best["n"])
        rows.append({
            "fd": fd_name,
            "n_groups": n_groups,
            "n_multi_groups": n_multi,
            "n_rows": n_rows,
            "n_violations": n_viol,
        })
    out = pd.DataFrame(rows).sort_values("fd").reset_index(drop=True)
    for c in ("n_groups", "n_multi_groups", "n_rows", "n_violations"):
        out[c] = out[c].astype("int64")
    return out


def _sql_fd_violation_audit() -> str:
    parts = []
    for fd_name, _eng, x_expr, y_col in FDS:
        parts.append(f"""
        SELECT '{fd_name}' AS fd,
               CAST(COUNT(DISTINCT x) AS BIGINT) AS n_groups,
               CAST(COUNT(DISTINCT CASE WHEN n_y > 1 THEN x END) AS BIGINT)
                 AS n_multi_groups,
               CAST(SUM(n) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN rk > 1 THEN n ELSE 0 END) AS BIGINT)
                 AS n_violations
        FROM (
          SELECT x, y, n,
                 ROW_NUMBER() OVER (PARTITION BY x
                                    ORDER BY n DESC, y ASC) AS rk,
                 COUNT(*) OVER (PARTITION BY x) AS n_y
          FROM (
            SELECT CAST({x_expr} AS VARCHAR) AS x, {y_col} AS y,
                   COUNT(*) AS n
            FROM documents GROUP BY 1, 2
          )
        )""")
    return " UNION ALL ".join(parts)


def q_dow_seasonality_stats(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def daily(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("o_orderdate"),
                      pa.int64()).to_numpy() // DAY_US
        t = pa.table({"day": pa.array(day, type=pa.int64())})
        out = t.group_by(["day"]).aggregate([("day", "count")])
        return pa.table({
            "day": out.column("day"),
            "n": pc.cast(out.column("day_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderdate"])
        .map_batches(daily, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("sum", "n", "n")],
    ).to_pandas()

    lo, hi = int(hist["day"].min()), int(hist["day"].max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[hist["day"].to_numpy().astype(np.int64) - lo] = \
        hist["n"].to_numpy().astype(np.int64)
    days = np.arange(lo, hi + 1, dtype=np.int64)
    dow = days % 7  # epoch-day mod 7 (day 0 = Thursday)

    import pandas as pd

    rows = []
    for w in range(7):
        sel = x[dow == w]
        rows.append({
            "dow": w,
            "n_days": len(sel),
            "sum_orders": int(sel.sum()),
            "sumsq_orders": int((sel * sel).sum()),
        })
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SQL_DOW_SEASONALITY_STATS = f"""
WITH ev AS (
  SELECT CAST(epoch_us(o_orderdate) AS BIGINT) // {DAY_US} AS day
  FROM orders
),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM ev),
days AS (SELECT unnest(generate_series(lo, hi)) AS day FROM bounds),
cnt AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n FROM ev GROUP BY day),
x AS (
  SELECT d.day, d.day % 7 AS dow, COALESCE(c.n, 0) AS n
  FROM days d LEFT JOIN cnt c ON d.day = c.day
)
SELECT CAST(dow AS BIGINT) AS dow,
       CAST(COUNT(*) AS BIGINT) AS n_days,
       CAST(SUM(n) AS BIGINT) AS sum_orders,
       CAST(SUM(n * n) AS BIGINT) AS sumsq_orders
FROM x GROUP BY dow
"""


def build_queries_ext97() -> dict:
    return {
        "fd_violation_audit": q_fd_violation_audit,
        "dow_seasonality_stats": q_dow_seasonality_stats,
    }


def build_oracles_ext97() -> dict:
    return {
        "fd_violation_audit": _sql_fd_violation_audit(),
        "dow_seasonality_stats": SQL_DOW_SEASONALITY_STATS,
    }
