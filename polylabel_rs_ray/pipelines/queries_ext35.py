"""Round-3 extension operators, batch 35: dim-filtered ratio + OHLC bars.

* ``promo_revenue`` — TPC-H Q14 shape: the revenue share earned by PROMO
  parts.  The part -> is_promo lookup is the classic BROADCAST dim join
  (bounded part domain; shipped once into the stage closure, read by
  every task — never re-shuffled per batch); revenue is the exact
  integer product ``price_cents * (100 - disc_pct)`` so the final share
  is one float division of two exact int64 sums, bit-identical to SQL.
* ``ohlc_user_hour`` — time-series resampling to OHLC bars (the
  financial downsample; also the shape of any first/last/min/max
  per-entity-per-window rollup): ONE hash(user) exchange, then a
  partition-confined lexsort by (user, hour, ts, event_id) and
  segment-boundary picks for open/close plus ``np.minimum/maximum
  .reduceat`` for low/high.  No per-group Python, no global sort; ties
  on ts break by event_id on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

US_PER_HOUR = 3_600_000_000


# --------------------------------------------------------------------------
# promo_revenue
# --------------------------------------------------------------------------


def q_promo_revenue(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    promo = pc.equal(part.column("p_type"), "PROMO").to_numpy(zero_copy_only=False)
    order = np.argsort(pk)
    pk_sorted, promo_sorted = pk[order], promo[order].astype(bool)

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64(),
        ).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)), pa.int64()
        ).to_numpy()
        rev = cents * (100 - disc)  # exact integer micro-revenue
        idx = np.searchsorted(pk_sorted, lpk)
        is_promo = promo_sorted[np.clip(idx, 0, len(pk_sorted) - 1)] & (
            pk_sorted[np.clip(idx, 0, len(pk_sorted) - 1)] == lpk
        )
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "promo_rev": pa.array([int(rev[is_promo].sum())], type=pa.int64()),
            "total_rev": pa.array([int(rev.sum())], type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    summed = grouped_aggregate(
        partials, ["k"],
        [("sum", "promo_rev", "promo_rev"), ("sum", "total_rev", "total_rev")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        p = batch.column("promo_rev").to_numpy().astype(np.int64)
        t = batch.column("total_rev").to_numpy().astype(np.int64)
        return pa.table({
            "promo_rev": pa.array(p, type=pa.int64()),
            "total_rev": pa.array(t, type=pa.int64()),
            "promo_share": pa.array(
                100.0 * p.astype(np.float64) / t.astype(np.float64),
                type=pa.float64(),
            ),
        })

    return summed.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


SQL_PROMO_REVENUE = """
WITH li AS (
  SELECT l_partkey,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)) AS rev
  FROM lineitem
), j AS (
  SELECT li.rev, (p.p_type = 'PROMO') AS is_promo
  FROM li JOIN part p ON li.l_partkey = p.p_partkey
)
SELECT CAST(SUM(CASE WHEN is_promo THEN rev ELSE 0 END) AS BIGINT) AS promo_rev,
       CAST(SUM(rev) AS BIGINT) AS total_rev,
       100.0 * CAST(SUM(CASE WHEN is_promo THEN rev ELSE 0 END) AS DOUBLE)
             / CAST(SUM(rev) AS DOUBLE) AS promo_share
FROM j
"""


# --------------------------------------------------------------------------
# ohlc_user_hour
# --------------------------------------------------------------------------


def q_ohlc_user_hour(sf_dir: str, n_parts: int | None = None):
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value", "event_id"],
    )

    def to_parts(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "tu": pc.cast(batch.column("ts"), pa.int64()),
            "value": batch.column("value"),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
        })

    keyed = ds.map_batches(to_parts, batch_format="pyarrow", zero_copy_batch=True)

    def bars(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        tu = group.column("tu").to_numpy().astype(np.int64)
        val = group.column("value").to_numpy().astype(np.float64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        if len(uid) == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "hour": pa.array([], type=pa.int64()),
                "open": pa.array([], type=pa.float64()),
                "high": pa.array([], type=pa.float64()),
                "low": pa.array([], type=pa.float64()),
                "close": pa.array([], type=pa.float64()),
                "n_events": pa.array([], type=pa.int64()),
            })
        hour = tu // US_PER_HOUR
        order = np.lexsort((eid, tu, hour, uid))
        u, h, v = uid[order], hour[order], val[order]
        new_seg = np.concatenate(
            [[True], (np.diff(u) != 0) | (np.diff(h) != 0)]
        )
        starts = np.nonzero(new_seg)[0]
        ends = np.concatenate([starts[1:], [len(u)]]) - 1
        return pa.table({
            "user_id": pa.array(u[starts], type=pa.int64()),
            "hour": pa.array(h[starts], type=pa.int64()),
            "open": pa.array(v[starts], type=pa.float64()),
            "high": pa.array(np.maximum.reduceat(v, starts), type=pa.float64()),
            "low": pa.array(np.minimum.reduceat(v, starts), type=pa.float64()),
            "close": pa.array(v[ends], type=pa.float64()),
            "n_events": pa.array(ends - starts + 1, type=pa.int64()),
        })

    return hash_exchange(keyed, "user_id", bars, n_parts)


SQL_OHLC_USER_HOUR = f"""
WITH e AS (
  SELECT user_id, epoch_us(ts) AS tu,
         epoch_us(ts) // {US_PER_HOUR} AS hour, value, event_id
  FROM events
), w AS (
  SELECT user_id, hour, value,
         ROW_NUMBER() OVER (PARTITION BY user_id, hour
                            ORDER BY tu, event_id) AS rn_a,
         ROW_NUMBER() OVER (PARTITION BY user_id, hour
                            ORDER BY tu DESC, event_id DESC) AS rn_d
  FROM e
)
SELECT user_id, CAST(hour AS BIGINT) AS hour,
       MAX(CASE WHEN rn_a = 1 THEN value END) AS open,
       MAX(value) AS high,
       MIN(value) AS low,
       MAX(CASE WHEN rn_d = 1 THEN value END) AS close,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM w GROUP BY user_id, hour
"""


def build_queries_ext35() -> dict:
    return {
        "promo_revenue": q_promo_revenue,
        "ohlc_user_hour": q_ohlc_user_hour,
    }


def build_oracles_ext35() -> dict:
    return {
        "promo_revenue": SQL_PROMO_REVENUE,
        "ohlc_user_hour": SQL_OHLC_USER_HOUR,
    }
