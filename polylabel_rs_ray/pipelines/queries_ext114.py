"""Round-3 extension operators, batch 114: Gorilla timestamp compression
cost + candidate-key discovery.

``dod_encoding_cost`` — the Gorilla/TSDB delta-of-delta timestamp
encoding audit, completing the encoding-cost family (RLE ext78, varint
delta ext82, dictionary ext83, front-coding ext95): per user the event
timestamps sort once, the second difference ``dod = (t_i − t_{i−1}) −
(t_{i−1} − t_{i−2})`` buckets into the paper's variable-width classes
(0 → 1 bit, [−63,64] → 9, [−255,256] → 12, [−2047,2048] → 16, else 36;
the first two timestamps cost 64 bits each), and the per-user bit total
is an exact integer sum.  One user-hash exchange; the double-LAG the
SQL formulation needs is two shifted slices inside the partition.

``candidate_key_audit`` — uniqueness profiling over a fixed combo list
on ``orders`` (the key-discovery sibling of ``fd_violation_audit``):
for each column combination, the distinct-group count, the maximum
multiplicity, and an ``is_key`` verdict.  Each combo is one
hash-partitioned exchange whose per-partition Arrow ``group_by``
produces every group exactly once — so ``n_distinct`` is a plain sum
of per-batch row counts and ``max_mult`` a max of per-batch maxima;
constant-size partials, no driver-side group table.

Reference anchors: storage-encoding metrology + data-quality audit
surface (SURVEY.md §2.3/§2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange


# --------------------------------------------------------------------------
# dod_encoding_cost
# --------------------------------------------------------------------------

_BUCKET_BITS = (1, 9, 12, 16, 36)


def _dod_bucket(dod: np.ndarray) -> np.ndarray:
    """Gorilla class index 0..4 per delta-of-delta value."""
    b = np.full(len(dod), 4, dtype=np.int64)
    b[(dod >= -2047) & (dod <= 2048)] = 3
    b[(dod >= -255) & (dod <= 256)] = 2
    b[(dod >= -63) & (dod <= 64)] = 1
    b[dod == 0] = 0
    return b


def q_dod_encoding_cost(sf_dir: str, n_parts: int | None = None):
    from .queries_ext3 import _user_sorted_stream

    def encode(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        n = len(uid)
        cols = ["user_id", "n_events", "total_bits",
                "n_dod0", "n_dod9", "n_dod12", "n_dod16", "n_dod36"]
        if n == 0:
            return pa.table({c: pa.array([], type=pa.int64()) for c in cols})
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        lens = np.diff(np.r_[starts, n])
        # position-in-user of every row (0-based)
        pos = np.arange(n) - np.repeat(starts, lens)
        d = np.r_[np.int64(0), ts[1:] - ts[:-1]]
        dod = np.r_[np.int64(0), d[1:] - d[:-1]]
        bucket = _dod_bucket(dod)
        bits = np.take(np.asarray(_BUCKET_BITS, dtype=np.int64), bucket)
        bits[pos <= 1] = 64  # first ts + first full delta
        out = {"user_id": uid[starts],
               "n_events": lens.astype(np.int64),
               "total_bits": np.add.reduceat(bits, starts)}
        tail = pos > 1  # only rows encoded as delta-of-delta count
        for k in range(5):
            flag = ((bucket == k) & tail).astype(np.int64)
            out[f"n_dod{_BUCKET_BITS[k] if k else 0}"] = (
                np.add.reduceat(flag, starts) if n else flag)
        # column names: n_dod0 n_dod9 n_dod12 n_dod16 n_dod36
        return pa.table({c: pa.array(out[c], type=pa.int64())
                         for c in cols})

    return hash_exchange(_user_sorted_stream(sf_dir), "user_id", encode, n_parts)


SQL_DOD_ENCODING_COST = """
    WITH o AS (
        SELECT user_id, epoch_us(ts) AS ts_us,
               ROW_NUMBER() OVER w AS rn,
               LAG(epoch_us(ts), 1) OVER w AS p1,
               LAG(epoch_us(ts), 2) OVER w AS p2
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ),
    b AS (
        SELECT user_id, rn,
               CASE WHEN rn <= 2 THEN -1
                    ELSE CASE
                        WHEN (ts_us - p1) - (p1 - p2) = 0 THEN 0
                        WHEN (ts_us - p1) - (p1 - p2) BETWEEN -63 AND 64
                            THEN 1
                        WHEN (ts_us - p1) - (p1 - p2) BETWEEN -255 AND 256
                            THEN 2
                        WHEN (ts_us - p1) - (p1 - p2) BETWEEN -2047 AND 2048
                            THEN 3
                        ELSE 4 END
               END AS bk
        FROM o
    )
    SELECT user_id,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CASE bk WHEN -1 THEN 64 WHEN 0 THEN 1 WHEN 1 THEN 9
                            WHEN 2 THEN 12 WHEN 3 THEN 16
                            ELSE 36 END) AS BIGINT) AS total_bits,
           CAST(SUM(CASE WHEN bk = 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_dod0,
           CAST(SUM(CASE WHEN bk = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_dod9,
           CAST(SUM(CASE WHEN bk = 2 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_dod12,
           CAST(SUM(CASE WHEN bk = 3 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_dod16,
           CAST(SUM(CASE WHEN bk = 4 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_dod36
    FROM b GROUP BY user_id
"""


# --------------------------------------------------------------------------
# candidate_key_audit
# --------------------------------------------------------------------------

# (combo name, engine column projections, SQL tuple expression)
_KEY_COMBOS = [
    ("orderkey", ["k_orderkey"], "(o_orderkey)"),
    ("custkey", ["k_custkey"], "(o_custkey)"),
    ("status", ["k_status"], "(o_orderstatus)"),
    ("cust_date", ["k_custkey", "k_date"], "(o_custkey, o_orderdate)"),
    ("status_priority", ["k_status", "k_priority"],
     "(o_orderstatus, o_orderpriority)"),
    ("cust_date_price", ["k_custkey", "k_date", "k_cents"],
     "(o_custkey, o_orderdate, CAST(ROUND(o_totalprice*100) AS BIGINT))"),
]


def q_candidate_key_audit(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def projected(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k_orderkey": batch.column("o_orderkey"),
            "k_custkey": batch.column("o_custkey"),
            "k_status": batch.column("o_orderstatus"),
            "k_priority": batch.column("o_orderpriority"),
            "k_date": pc.cast(pc.cast(batch.column("o_orderdate"),
                                      pa.int64()), pa.int64()),
            "k_cents": pc.cast(pc.round(pc.multiply(
                batch.column("o_totalprice"), 100.0)), pa.int64()),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    base = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_orderpriority", "o_orderdate", "o_totalprice"],
    ).map_batches(projected, batch_format="pyarrow", zero_copy_batch=True)

    rows = {"combo": [], "n_rows": [], "n_distinct": [], "max_mult": [],
            "is_key": []}
    for name, cols, _sql in _KEY_COMBOS:
        groups = grouped_aggregate(
            base.select_columns(cols + ["one"]), cols,
            [("sum", "one", "mult")], n_parts=n_parts)

        def partial(batch: pa.Table) -> pa.Table:
            m = batch.column("mult").to_numpy().astype(np.int64)
            return pa.table({
                "g": pa.array([len(m)], type=pa.int64()),
                "r": pa.array([int(m.sum())], type=pa.int64()),
                "mx": pa.array([int(m.max()) if len(m) else 0],
                               type=pa.int64()),
            })

        # each group appears exactly once dataset-wide -> constant-size
        # per-batch partials; the driver fold is O(blocks)
        parts = groups.map_batches(
            partial, batch_format="pyarrow").to_pandas()
        n_distinct = int(parts["g"].sum())
        n_rows = int(parts["r"].sum())
        max_mult = int(parts["mx"].max()) if len(parts) else 0
        rows["combo"].append(name)
        rows["n_rows"].append(n_rows)
        rows["n_distinct"].append(n_distinct)
        rows["max_mult"].append(max_mult)
        rows["is_key"].append(1 if n_distinct == n_rows else 0)
    return pa.table({
        "combo": pa.array(rows["combo"], type=pa.string()),
        "n_rows": pa.array(rows["n_rows"], type=pa.int64()),
        "n_distinct": pa.array(rows["n_distinct"], type=pa.int64()),
        "max_mult": pa.array(rows["max_mult"], type=pa.int64()),
        "is_key": pa.array(rows["is_key"], type=pa.int64()),
    })


def _sql_candidate_key_audit() -> str:
    parts = []
    for name, _cols, sql_tuple in _KEY_COMBOS:
        parts.append(f"""
        SELECT '{name}' AS combo,
               CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST((SELECT COUNT(*) FROM
                     (SELECT DISTINCT {sql_tuple[1:-1]} FROM orders))
                    AS BIGINT) AS n_distinct,
               CAST((SELECT MAX(c) FROM
                     (SELECT COUNT(*) AS c FROM orders
                      GROUP BY {sql_tuple[1:-1]})) AS BIGINT) AS max_mult,
               CAST(CASE WHEN (SELECT COUNT(*) FROM
                     (SELECT DISTINCT {sql_tuple[1:-1]} FROM orders))
                    = COUNT(*) THEN 1 ELSE 0 END AS BIGINT) AS is_key
        FROM orders""")
    return " UNION ALL ".join(parts)


def build_queries_ext114() -> dict:
    return {
        "dod_encoding_cost": q_dod_encoding_cost,
        "candidate_key_audit": q_candidate_key_audit,
    }


def build_oracles_ext114() -> dict:
    return {
        "dod_encoding_cost": SQL_DOD_ENCODING_COST,
        "candidate_key_audit": _sql_candidate_key_audit(),
    }
