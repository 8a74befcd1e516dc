"""Round-3 extension operators, batch 31: incremental table maintenance.

``merge_upsert_orders`` — MERGE INTO / CDC-apply semantics (the Delta
Lake / Iceberg / Hudi upsert): a base table plus a change stream of
keyed UPDATE / DELETE / INSERT rows reduce to the latest-wins snapshot.

The change stream is DERIVED deterministically from the base table (no
external data): every ``o_orderkey % 13 == 3`` key gets a DELETE
tombstone; every other ``% 7 == 0`` key gets an UPDATE (status ``'U'``,
price bumped by 500 cents); every ``% 11 == 5`` key spawns an INSERT at
``key + 100_000_000`` (disjoint from the base key range).  Both the
engine and the DuckDB oracle replay the same derivation, so the merged
snapshot matches value-exactly.

Scale shape — the shape MERGE must have at 100 TB:

* base + delta are unioned in ONE stateless fanout map (at deployment
  the delta is simply a second ``read_parquet``; no driver work),
* rows co-partition by ``hash(key) % P`` (the shared ``hash_part``
  partitioner) — the ONLY exchange,
* within each partition the latest-wins pick is one ``np.lexsort`` over
  ``(version, key)`` plus a run-boundary take — no per-key Python, no
  global sort, and tombstones drop with a vectorized mask.

Versions here are 0 (base) / 1 (delta) with at most one delta row per
key; the lexsort run-last pick generalises unchanged to arbitrary
monotone version columns (commit LSNs) and multi-row histories.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

INSERT_OFFSET = 100_000_000


def q_merge_upsert_orders(sf_dir: str, n_parts: int | None = None):
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )

    def fanout(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)), pa.int64()
        ).to_numpy()
        st = batch.column("o_orderstatus")

        del_m = (k % 13) == 3
        upd_m = ((k % 7) == 0) & ~del_m
        ins_m = (k % 11) == 5
        ku, kd, ki = k[upd_m], k[del_m], k[ins_m]

        keys = np.concatenate([k, ku, kd, ki + INSERT_OFFSET])
        prices = np.concatenate(
            [cents, cents[upd_m] + 500, np.zeros(len(kd), np.int64), ki]
        )
        vers = np.concatenate(
            [np.zeros(len(k), np.int64), np.ones(len(ku) + len(kd) + len(ki), np.int64)]
        )
        dels = np.concatenate(
            [
                np.zeros(len(k) + len(ku), np.int64),
                np.ones(len(kd), np.int64),
                np.zeros(len(ki), np.int64),
            ]
        )
        status = pa.concat_arrays(
            [
                st.combine_chunks() if isinstance(st, pa.ChunkedArray) else st,
                pa.array(["U"] * len(ku), type=pa.string()),
                pa.array([""] * len(kd), type=pa.string()),
                pa.array(["N"] * len(ki), type=pa.string()),
            ]
        )
        return pa.table({
            "o_orderkey": pa.array(keys, type=pa.int64()),
            "o_orderstatus": status,
            "price_cents": pa.array(prices, type=pa.int64()),
            "src_version": pa.array(vers, type=pa.int64()),
            "is_delete": pa.array(dels, type=pa.int64()),
        })

    keyed = ds.map_batches(fanout, batch_format="pyarrow", zero_copy_batch=True)

    def latest_wins(group: pa.Table) -> pa.Table:
        k = group.column("o_orderkey").to_numpy().astype(np.int64)
        v = group.column("src_version").to_numpy().astype(np.int64)
        if len(k) == 0:
            return group.drop_columns(["is_delete"])
        order = np.lexsort((v, k))
        ks = k[order]
        last = np.nonzero(np.diff(ks) != 0)[0]
        sel = order[np.concatenate([last, [len(ks) - 1]])]
        dels = group.column("is_delete").to_numpy().astype(np.int64)[sel]
        taken = group.take(pa.array(sel[dels == 0], type=pa.int64()))
        return taken.drop_columns(["is_delete"])

    return hash_exchange(keyed, "o_orderkey", latest_wins, n_parts)


SQL_MERGE_UPSERT_ORDERS = f"""
WITH base AS (
  SELECT o_orderkey AS k, o_orderstatus AS st,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS pcents,
         CAST(0 AS BIGINT) AS v, 0 AS is_del
  FROM orders
), delta AS (
  SELECT k, 'U' AS st, pcents + 500 AS pcents, CAST(1 AS BIGINT) AS v, 0 AS is_del
  FROM base WHERE k % 7 = 0 AND k % 13 <> 3
  UNION ALL
  SELECT k, '' AS st, CAST(0 AS BIGINT) AS pcents, CAST(1 AS BIGINT) AS v, 1 AS is_del
  FROM base WHERE k % 13 = 3
  UNION ALL
  SELECT k + {INSERT_OFFSET} AS k, 'N' AS st, k AS pcents, CAST(1 AS BIGINT) AS v,
         0 AS is_del
  FROM base WHERE k % 11 = 5
), allrows AS (
  SELECT * FROM base UNION ALL SELECT * FROM delta
), ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY k ORDER BY v DESC) AS rn FROM allrows
)
SELECT k AS o_orderkey, st AS o_orderstatus, pcents AS price_cents,
       v AS src_version
FROM ranked WHERE rn = 1 AND is_del = 0
"""


def build_queries_ext31() -> dict:
    return {"merge_upsert_orders": q_merge_upsert_orders}


def build_oracles_ext31() -> dict:
    return {"merge_upsert_orders": SQL_MERGE_UPSERT_ORDERS}
