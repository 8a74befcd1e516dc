"""Round-2 extension operators, batch 17: data profiling.

``table_profile`` — per-column statistics (min, max, row count, exact
distinct count) for the integer measure columns of lineitem, computed
with ONE shuffle for every column together: each batch melts its columns
into (col_id, value) pairs pre-deduped per block, the global pair-dedup
groupby carries only unique (col, value) rows, and per-column min/max/n
ride the map-side combine — the profiling pass a warehouse runs before
planning, in engine form."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

PROFILE_COLS = ("l_linenumber", "l_quantity", "l_partkey", "l_suppkey")


def q_table_profile(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    cols = list(PROFILE_COLS)
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)

    # pass A: per-column min/max/count via constant-size per-block partials
    def stats(batch: pa.Table) -> pa.Table:
        mins, maxs, ns = [], [], []
        for c in cols:
            v = batch.column(c).to_numpy().astype(np.int64)
            mins.append(int(v.min()) if len(v) else 2**62)
            maxs.append(int(v.max()) if len(v) else -(2**62))
            ns.append(len(v))
        return pa.table({
            "column": pa.array(cols, type=pa.string()),
            "min_v": pa.array(mins, type=pa.int64()),
            "max_v": pa.array(maxs, type=pa.int64()),
            "n": pa.array(ns, type=pa.int64()),
        })

    base = grouped_aggregate(
        ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True),
        ["column"],
        [("min", "min_v", "min_v"), ("max", "max_v", "max_v"), ("sum", "n", "n")],
    )

    # pass B: exact NDV for ALL columns through one shared pair-dedup
    # shuffle — blocks pre-dedupe, the shuffle carries unique pairs
    def melt(batch: pa.Table) -> pa.Table:
        outs = []
        for i, c in enumerate(cols):
            u = np.unique(batch.column(c).to_numpy().astype(np.int64))
            outs.append(pa.table({
                "col_id": pa.array(np.full(len(u), i, np.int64)),
                "value": pa.array(u, type=pa.int64()),
            }))
        return pa.concat_tables(outs)

    pairs = grouped_aggregate(
        ds.map_batches(melt, batch_format="pyarrow", zero_copy_batch=True),
        ["col_id", "value"],
        [("count", None, "_n")],
    )
    ndv = grouped_aggregate(pairs, ["col_id"], [("count", None, "n_distinct")]).to_pandas()
    ndv_map = dict(zip(ndv["col_id"], ndv["n_distinct"]))
    base_df = base.to_pandas()  # O(columns)
    order = {c: i for i, c in enumerate(cols)}
    base_df["n_distinct"] = [int(ndv_map[order[c]]) for c in base_df["column"]]
    return pa.table({
        "column": pa.array(base_df["column"].tolist(), type=pa.string()),
        "min_v": pa.array(base_df["min_v"].to_numpy(), type=pa.int64()),
        "max_v": pa.array(base_df["max_v"].to_numpy(), type=pa.int64()),
        "n": pa.array(base_df["n"].to_numpy(), type=pa.int64()),
        "n_distinct": pa.array(base_df["n_distinct"].to_numpy(), type=pa.int64()),
    })


def _sql_table_profile() -> str:
    parts = [
        f"""SELECT '{c}' AS column, CAST(MIN({c}) AS BIGINT) AS min_v,
                   CAST(MAX({c}) AS BIGINT) AS max_v,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct
            FROM lineitem"""
        for c in PROFILE_COLS
    ]
    return " UNION ALL ".join(parts)


def build_queries_ext16() -> dict:
    return {"table_profile": q_table_profile}


def build_oracles_ext16() -> dict:
    return {"table_profile": _sql_table_profile()}
