"""Round-3 extension operators, batch 142: DOW×hour independence heat
map + name/key referential consistency audit.

``dow_hour_heatmap`` — the 7×24 activity heat map with EXACT
independence residuals: per (day-of-week, hour-of-day) cell the count
n plus the integer chi-square cross term ``dev = n·N − row·col``
(the value_drift_bins discipline — each cell's deviation from the
independence expectation scaled by N, exact int64 so no float
division crosses the oracle).  Day-of-week via the epoch-day mod-7
identity (0 = Thursday, pinned against DuckDB's dayofweek in the
ext138 tests).  Bounded 168-cell histogram through the map-side
combine; marginals folded on the driver.  All 168 cells emitted.

``name_key_consistency_audit`` — the referential data-quality
contract "entity names embed their own keys": customer and supplier
names are ``<Entity>#%09d``; per table the audit reports row count,
rows whose parsed numeric suffix equals the key, and rows failing the
format regex — one row per table so the audit is non-degenerate even
when the contract universally holds (the linenumber_density
discipline).  Vectorized Arrow slice+cast per batch, single-row
combine per table.  Oracle: regexp_extract + CAST.

Reference anchors: calendar-analytics + data-quality families
(SURVEY.md §2.4); siblings: dow_seasonality_stats,
segment_priority_independence (exact chi-square cross terms),
fd_violation_audit, linenumber_density_audit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
HOUR_US = 3_600_000_000


# --------------------------------------------------------------------------
# dow_hour_heatmap
# --------------------------------------------------------------------------


def q_dow_hour_heatmap(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def cells(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        day = t // DAY_US
        dow = day % 7
        hod = (t // HOUR_US) % 24
        tt = pa.table({
            "dow": pa.array(dow, type=pa.int64()),
            "hod": pa.array(hod, type=pa.int64()),
        })
        out = tt.group_by(["dow", "hod"]).aggregate([("dow", "count")])
        return pa.table({
            "dow": out.column("dow"),
            "hod": out.column("hod"),
            "n": pc.cast(out.column("dow_count"), pa.int64()),
        })

    h = grouped_aggregate(
        ds.map_batches(cells, batch_format="pyarrow", zero_copy_batch=True),
        ["dow", "hod"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: 7 × 24

    mat = np.zeros((7, 24), dtype=np.int64)
    mat[h["dow"].to_numpy().astype(np.int64),
        h["hod"].to_numpy().astype(np.int64)] = \
        h["n"].to_numpy().astype(np.int64)
    N = int(mat.sum())
    row = mat.sum(axis=1)
    col = mat.sum(axis=0)
    dev = mat * N - row[:, None] * col[None, :]
    di, hi = np.meshgrid(np.arange(7), np.arange(24), indexing="ij")
    return ray.data.from_arrow(pa.table({
        "dow": pa.array(di.ravel(), type=pa.int64()),
        "hod": pa.array(hi.ravel(), type=pa.int64()),
        "n": pa.array(mat.ravel(), type=pa.int64()),
        "dev": pa.array(dev.ravel(), type=pa.int64()),
    }))


SQL_DOW_HOUR_HEATMAP = f"""
WITH cells AS (
  SELECT (epoch_us(ts) // {DAY_US}) % 7 AS dow,
         (epoch_us(ts) // {HOUR_US}) % 24 AS hod,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), grid AS (
  SELECT d.d AS dow, h.h AS hod
  FROM (SELECT UNNEST(range(7)) AS d) d
  CROSS JOIN (SELECT UNNEST(range(24)) AS h) h
), full_grid AS (
  SELECT g.dow, g.hod, COALESCE(c.n, 0) AS n
  FROM grid g LEFT JOIN cells c ON c.dow = g.dow AND c.hod = g.hod
), marg AS (
  SELECT dow, hod, n,
         SUM(n) OVER () AS total,
         SUM(n) OVER (PARTITION BY dow) AS row_n,
         SUM(n) OVER (PARTITION BY hod) AS col_n
  FROM full_grid
)
SELECT CAST(dow AS BIGINT) AS dow, CAST(hod AS BIGINT) AS hod,
       CAST(n AS BIGINT) AS n,
       CAST(n * total - row_n * col_n AS BIGINT) AS dev
FROM marg
"""


# --------------------------------------------------------------------------
# name_key_consistency_audit
# --------------------------------------------------------------------------


def q_name_key_consistency_audit(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def audit(table: str, key_col: str, name_col: str, prefix: str):
        ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                   columns=[key_col, name_col])

        def stage(batch: pa.Table) -> pa.Table:
            keys = batch.column(key_col).to_numpy().astype(np.int64)
            names = batch.column(name_col)
            ok_fmt = pc.match_substring_regex(
                names, f"^{prefix}#[0-9]{{9}}$")
            # suffix parse: slice after '<prefix>#', cast — invalid -> null
            suffix = pc.utf8_slice_codeunits(
                names, len(prefix) + 1, 2**31 - 1)
            parsed = pc.cast(
                pc.if_else(ok_fmt, suffix, pa.scalar(None, pa.string())),
                pa.int64())
            match = pc.fill_null(
                pc.equal(parsed, pa.array(keys, type=pa.int64())), False)
            bad_fmt = pc.fill_null(pc.invert(ok_fmt), True)
            return pa.table({
                "tbl": pa.array([table], type=pa.string()),
                "n_rows": pa.array([batch.num_rows], type=pa.int64()),
                "n_key_match": pa.array(
                    [int(pc.sum(pc.cast(match, pa.int64())).as_py() or 0)],
                    type=pa.int64()),
                "n_bad_format": pa.array(
                    [int(pc.sum(pc.cast(bad_fmt, pa.int64())).as_py() or 0)],
                    type=pa.int64()),
            })

        return grouped_aggregate(
            ds.map_batches(stage, batch_format="pyarrow",
                           zero_copy_batch=True),
            ["tbl"],
            [("sum", "n_rows", "n_rows"),
             ("sum", "n_key_match", "n_key_match"),
             ("sum", "n_bad_format", "n_bad_format")],
        )

    c = audit("customer", "c_custkey", "c_name", "Customer")
    s = audit("supplier", "s_suppkey", "s_name", "Supplier")
    return c.union(s)


SQL_NAME_KEY_CONSISTENCY_AUDIT = r"""
SELECT 'customer' AS tbl,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN regexp_matches(c_name, '^Customer#[0-9]{9}$')
                      AND CAST(regexp_extract(c_name, '#([0-9]{9})$', 1)
                               AS BIGINT) = c_custkey
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_key_match,
       CAST(SUM(CASE WHEN regexp_matches(c_name, '^Customer#[0-9]{9}$')
                     THEN 0 ELSE 1 END) AS BIGINT) AS n_bad_format
FROM customer
UNION ALL
SELECT 'supplier',
       CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN regexp_matches(s_name, '^Supplier#[0-9]{9}$')
                      AND CAST(regexp_extract(s_name, '#([0-9]{9})$', 1)
                               AS BIGINT) = s_suppkey
                     THEN 1 ELSE 0 END) AS BIGINT),
       CAST(SUM(CASE WHEN regexp_matches(s_name, '^Supplier#[0-9]{9}$')
                     THEN 0 ELSE 1 END) AS BIGINT)
FROM supplier
"""


def build_queries_ext142() -> dict:
    return {
        "dow_hour_heatmap": q_dow_hour_heatmap,
        "name_key_consistency_audit": q_name_key_consistency_audit,
    }


def build_oracles_ext142() -> dict:
    return {
        "dow_hour_heatmap": SQL_DOW_HOUR_HEATMAP,
        "name_key_consistency_audit": SQL_NAME_KEY_CONSISTENCY_AUDIT,
    }
