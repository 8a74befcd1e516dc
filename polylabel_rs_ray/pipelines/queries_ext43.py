"""Round-3 extension operators, batch 43: snapshot reconciliation (diff).

``snapshot_diff`` — the change-data-feed generator / table-reconciliation
op: given two versions of a keyed table, emit one row per changed key,
classified INSERT / UPDATE / DELETE with the new payload.  Here the two
versions are the orders base and the deterministically derived merged
snapshot of ext batch 31 — which gives the op a machine-checked CLOSURE
property: ``diff(base, merge(base, delta)) == delta`` (the audit pins
exactly the update/delete/insert key classes ext31 planted).

Scale shape: both versions are fact-sized, so the diff is ONE
co-partitioned hash(key) exchange (sides union null-free with a side
tag); within a partition a (key, side) lexsort classifies each key run
vectorized — singleton runs are INSERT or DELETE by side, pairs compare
payloads for UPDATE, identical pairs emit nothing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


def q_snapshot_diff(sf_dir: str, n_parts: int | None = None):
    from .queries_ext31 import INSERT_OFFSET

    import ray

    def base_side(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)), pa.int64()
        )
        return pa.table({
            "k": pa.array(k, type=pa.int64()),
            "status": batch.column("o_orderstatus"),
            "price_cents": cents,
            "side": pa.array(np.zeros(len(k), np.int64)),
        })

    def new_side(batch: pa.Table) -> pa.Table:
        # the ext31 merged snapshot, derived in-flight (a deployment reads
        # the second table version instead)
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)), pa.int64()
        ).to_numpy()
        st = batch.column("o_orderstatus")
        del_m = (k % 13) == 3
        upd_m = ((k % 7) == 0) & ~del_m
        ins_m = (k % 11) == 5
        keep = ~del_m
        keys = np.concatenate([k[keep], k[ins_m] + INSERT_OFFSET])
        prices = np.where(upd_m, cents + 500, cents)[keep]
        prices = np.concatenate([prices, k[ins_m]])
        st_keep = st.combine_chunks() if isinstance(st, pa.ChunkedArray) else st
        statuses = pa.concat_arrays([
            pc.if_else(pa.array(upd_m[keep]),
                       pa.array(["U"] * int(keep.sum()), type=pa.string()),
                       st_keep.filter(pa.array(keep))),
            pa.array(["N"] * int(ins_m.sum()), type=pa.string()),
        ])
        return pa.table({
            "k": pa.array(keys, type=pa.int64()),
            "status": statuses,
            "price_cents": pa.array(prices, type=pa.int64()),
            "side": pa.array(np.ones(len(keys), np.int64)),
        })

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]
    base = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)
    unioned = base.map_batches(
        base_side, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        base.map_batches(new_side, batch_format="pyarrow", zero_copy_batch=True)
    )

    def classify(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "o_orderkey": pa.array([], type=pa.int64()),
            "change": pa.array([], type=pa.string()),
            "new_status": pa.array([], type=pa.string()),
            "new_price_cents": pa.array([], type=pa.int64()),
        })
        if group.num_rows == 0:
            return empty
        k = group.column("k").to_numpy().astype(np.int64)
        side = group.column("side").to_numpy().astype(np.int64)
        order = np.lexsort((side, k))
        g = group.take(pa.array(order, type=pa.int64()))
        k, side = k[order], side[order]
        price = g.column("price_cents").to_numpy().astype(np.int64)
        status = g.column("status")
        starts = np.concatenate([[0], np.nonzero(np.diff(k) != 0)[0] + 1])
        sizes = np.diff(np.concatenate([starts, [len(k)]]))
        # singleton runs: side 0 -> DELETE, side 1 -> INSERT
        single = starts[sizes == 1]
        ins = single[side[single] == 1]
        dele = single[side[single] == 0]
        # pair runs: base at starts, new at starts+1 (side sorts 0 before 1)
        pairs = starts[sizes == 2]
        pb, pn = pairs, pairs + 1
        st_eq = pc.equal(
            status.take(pa.array(pb, type=pa.int64())),
            status.take(pa.array(pn, type=pa.int64())),
        ).to_numpy(zero_copy_only=False).astype(bool)
        changed = ~(st_eq & (price[pb] == price[pn]))
        upd = pn[changed]
        idx = np.concatenate([ins, upd, dele])
        change = np.concatenate([
            np.full(len(ins), "I", dtype=object),
            np.full(len(upd), "U", dtype=object),
            np.full(len(dele), "D", dtype=object),
        ])
        sel = pa.array(idx, type=pa.int64())
        out_status = status.take(sel)
        out_price = price[idx]
        # deletes carry no new payload
        is_del = change == "D"
        out_price = np.where(is_del, 0, out_price)
        out_status = pc.if_else(
            pa.array(is_del),
            pa.array([""] * len(idx), type=pa.string()),
            out_status.combine_chunks()
            if isinstance(out_status, pa.ChunkedArray) else out_status,
        )
        return pa.table({
            "o_orderkey": pa.array(k[idx], type=pa.int64()),
            "change": pa.array(change.tolist(), type=pa.string()),
            "new_status": out_status,
            "new_price_cents": pa.array(out_price, type=pa.int64()),
        })

    return hash_exchange(unioned, "k", classify, n_parts)


def _sql_snapshot_diff() -> str:
    from .queries_ext31 import INSERT_OFFSET

    return f"""
WITH base AS (
  SELECT o_orderkey AS k, o_orderstatus AS st,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS pcents
  FROM orders
), newv AS (
  SELECT k, CASE WHEN k % 7 = 0 THEN 'U' ELSE st END AS st,
         CASE WHEN k % 7 = 0 THEN pcents + 500 ELSE pcents END AS pcents
  FROM base WHERE k % 13 <> 3
  UNION ALL
  SELECT k + {INSERT_OFFSET} AS k, 'N' AS st, k AS pcents
  FROM base WHERE k % 11 = 5
), j AS (
  SELECT COALESCE(b.k, n.k) AS k,
         b.k IS NULL AS only_new, n.k IS NULL AS only_base,
         n.st AS nst, n.pcents AS npc, b.st AS bst, b.pcents AS bpc
  FROM base b FULL OUTER JOIN newv n ON b.k = n.k
)
SELECT k AS o_orderkey,
       CASE WHEN only_new THEN 'I' WHEN only_base THEN 'D' ELSE 'U' END
           AS change,
       CASE WHEN only_base THEN '' ELSE nst END AS new_status,
       CASE WHEN only_base THEN 0 ELSE npc END AS new_price_cents
FROM j
WHERE only_new OR only_base OR nst <> bst OR npc <> bpc
"""


def build_queries_ext43() -> dict:
    return {"snapshot_diff": q_snapshot_diff}


def build_oracles_ext43() -> dict:
    return {"snapshot_diff": _sql_snapshot_diff()}
