"""Round-2 extension operators, batch 15: per-group interpolated quantile
and composite-key argmax.

* ``median_cont_per_type`` — per-GROUP percentile_cont: both neighbour
  order statistics (ranks floor/ceil of (n-1)/2) come out of ONE shared
  per-key integer-histogram selection (two target bins per key at most);
  the midpoint stays exact integer cents as a (lo, hi) pair — no float
  interpolation anywhere, the oracle replays the identical rank picks.
* ``top_event_per_user_day`` — argmax per composite key (the user's
  highest-value event each day, event-id tiebreak) as a packed-int64
  max through the map-side combine — no per-group task, one shuffle of
  combined partials."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
CONT_B = 512


# --------------------------------------------------------------------------
# per-group percentile_cont (exact, integer space)
# --------------------------------------------------------------------------


def q_median_cont_per_type(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    B = CONT_B

    def cents_tbl(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "c": pa.array(
                np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64),
                type=pa.int64(),
            ),
        })

    cds = ds.map_batches(cents_tbl, batch_format="pyarrow", zero_copy_batch=True)

    def stats_batch(batch: pa.Table) -> pa.Table:
        gb = batch.group_by(["event_type"]).aggregate(
            [("c", "count"), ("c", "min"), ("c", "max")]
        )
        return pa.table({
            "event_type": gb.column("event_type"),
            "n": pc.cast(gb.column("c_count"), pa.int64()),
            "lo": pc.cast(gb.column("c_min"), pa.int64()),
            "hi": pc.cast(gb.column("c_max"), pa.int64()),
        })

    st = (
        cds.map_batches(stats_batch, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("event_type")
        .agg(n=("n", "sum"), lo=("lo", "min"), hi=("hi", "max"))
    )
    keys = sorted(st.index)
    n_k = st["n"].reindex(keys).to_numpy().astype(np.int64)
    lo_k = st["lo"].reindex(keys).to_numpy().astype(np.int64)
    hi_k = st["hi"].reindex(keys).to_numpy().astype(np.int64)
    span_k = hi_k - lo_k + 1
    # 0-indexed neighbour ranks around the fractional rank (n-1)/2
    rlo_k = (n_k - 1) // 2
    rhi_k = n_k // 2
    key_set = pa.array(keys, type=pa.string())
    K = len(keys)

    def key_ids_of(col) -> np.ndarray:
        return pc.index_in(col, value_set=key_set).to_numpy().astype(np.int64)

    def bin_of(ki: np.ndarray, c: np.ndarray) -> np.ndarray:
        return (c - lo_k[ki]) * B // span_k[ki]

    def hist_batch(batch: pa.Table) -> pa.Table:
        ki = key_ids_of(batch.column("event_type"))
        c = batch.column("c").to_numpy().astype(np.int64)
        h = np.bincount(ki * B + bin_of(ki, c), minlength=K * B)
        return pa.table({"hist": pa.array([h], type=pa.list_(pa.int64()))})

    parts = cds.map_batches(hist_batch, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
    hist = np.zeros(K * B, dtype=np.int64)
    for row in parts["hist"]:
        hist += np.asarray(row, dtype=np.int64)
    hist = hist.reshape(K, B)
    cums = np.concatenate(
        [np.zeros((K, 1), dtype=np.int64), np.cumsum(hist, axis=1)], axis=1
    )
    tb_lo = np.array(
        [int(np.searchsorted(cums[i], rlo_k[i], side="right") - 1) for i in range(K)]
    )
    tb_hi = np.array(
        [int(np.searchsorted(cums[i], rhi_k[i], side="right") - 1) for i in range(K)]
    )

    def pick(batch: pa.Table) -> pa.Table:
        ki = key_ids_of(batch.column("event_type"))
        c = batch.column("c").to_numpy().astype(np.int64)
        b = bin_of(ki, c)
        m = (b == tb_lo[ki]) | (b == tb_hi[ki])
        return pa.table({
            "key_id": pa.array(ki[m], type=pa.int64()),
            "c": pa.array(c[m], type=pa.int64()),
        })

    got = cds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    lo_out = np.empty(K, dtype=np.int64)
    hi_out = np.empty(K, dtype=np.int64)
    for i in range(K):
        vals = np.sort(got.loc[got["key_id"] == i, "c"].to_numpy())
        # ranks are global; inside the pulled subset, offset by the count
        # of rows in bins strictly below each target bin
        below_lo = cums[i][tb_lo[i]]
        # subset contains bins tb_lo and tb_hi only; rows below tb_lo in
        # the subset: none.  rows between the bins are NOT pulled, so for
        # tb_hi the offset inside the subset is (#pulled rows below tb_hi)
        in_lo_bin = hist[i][tb_lo[i]]
        lo_out[i] = vals[rlo_k[i] - below_lo]
        if tb_hi[i] == tb_lo[i]:
            hi_out[i] = vals[rhi_k[i] - below_lo]
        else:
            below_hi_subset = in_lo_bin  # only tb_lo's rows precede in subset
            hi_out[i] = vals[rhi_k[i] - cums[i][tb_hi[i]] + below_hi_subset]
    return pa.table({
        "event_type": pa.array(keys, type=pa.string()),
        "lo_cents": pa.array(lo_out, type=pa.int64()),
        "hi_cents": pa.array(hi_out, type=pa.int64()),
        # exact rational midpoint as numerator/2 (consumer divides)
        "median_num": pa.array(lo_out + hi_out, type=pa.int64()),
    })


SQL_MEDIAN_CONT_PER_TYPE = """
    WITH v AS (
        SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS c FROM events
    ),
    r AS (
        SELECT event_type, c,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY c) - 1 AS rn,
               COUNT(*) OVER (PARTITION BY event_type) AS n
        FROM v
    )
    SELECT event_type,
           CAST(MAX(CASE WHEN rn = (n-1)//2 THEN c END) AS BIGINT) AS lo_cents,
           CAST(MAX(CASE WHEN rn = n//2 THEN c END) AS BIGINT) AS hi_cents,
           CAST(MAX(CASE WHEN rn = (n-1)//2 THEN c END)
              + MAX(CASE WHEN rn = n//2 THEN c END) AS BIGINT) AS median_num
    FROM r GROUP BY event_type
"""


# --------------------------------------------------------------------------
# composite-key argmax
# --------------------------------------------------------------------------

EID_BITS = 40  # event ids fit comfortably; value_cents * 2^40 fits int64


def q_top_event_per_user_day(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )
    M = np.int64(1) << EID_BITS

    def keyed(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        day = (
            batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
            // DAY_US
        )
        cents = np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64)
        pack = cents * M + (M - 1 - eid)  # max -> (max value, min event_id)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "day": pa.array(day, type=pa.int64()),
            "pack": pa.array(pack, type=pa.int64()),
        })

    best = grouped_aggregate(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"],
        [("max", "pack", "best")],
    )

    def decode(batch: pa.Table) -> pa.Table:
        b = batch.column("best").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "day": batch.column("day"),
            "event_id": pa.array(M - 1 - (b % M), type=pa.int64()),
            "value_cents": pa.array(b // M, type=pa.int64()),
        })

    return best.map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)


SQL_TOP_EVENT_PER_USER_DAY = """
    SELECT CAST(user_id AS BIGINT) AS user_id,
           CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
           CAST(event_id AS BIGINT) AS event_id,
           CAST(ROUND(value * 100) AS BIGINT) AS value_cents
    FROM events
    QUALIFY ROW_NUMBER() OVER (
        PARTITION BY user_id, epoch_us(ts) // 86400000000
        ORDER BY value DESC, event_id ASC) = 1
"""


def build_queries_ext14() -> dict:
    return {
        "median_cont_per_type": q_median_cont_per_type,
        "top_event_per_user_day": q_top_event_per_user_day,
    }


def build_oracles_ext14() -> dict:
    return {
        "median_cont_per_type": SQL_MEDIAN_CONT_PER_TYPE,
        "top_event_per_user_day": SQL_TOP_EVENT_PER_USER_DAY,
    }
