"""Round-3 extension operators, batch 174: secretary-rule optimal
stopping + nation trade asymmetry matrix.

``secretary_stopping`` — the classic online hiring rule replayed per
user over the (ts, event_id)-ordered value stream in exact cents:
observe the first ``r = (37·n)//100`` values (the integer stand-in
for the n/e burn-in — exact, no irrational constant crosses the
contract), then stop at the first later value STRICTLY exceeding the
burn-in maximum, falling back to the final value.  Emits stop
position, stopped cents and whether the stop captured the global
maximum (ties count as best).  One vectorized pass per hash
partition: segment cummax gives every user's burn-in threshold with
one gather, the first-qualifying position folds with the reduceat
machinery — no per-user loop.  Oracle: window prefix-max + MIN-rank
qualifying pick with the r = 0 edge handled by COALESCE(-1).

``trade_asymmetry_matrix`` — the full supplier-nation × customer-
nation revenue matrix folded to UNORDERED pairs with both directed
volumes and their absolute difference (the trade-imbalance view of
TPC-H Q7, unfiltered: every nation pair, no date window): exact
integer micro-revenue ``cents·(100−disc)``.  Distributed shape is
the Q7 two-pass co-partitioned union join (orders×customer on the
customer key, then lineitem×pass1 on the order key) with the small
supplier→nation side broadcast — but aggregated to the bounded
nation×nation matrix through the map-side combine, then folded to
unordered pairs driver-side.  The oracle is the direct three-way
join with LEAST/GREATEST pair canonicalization.

Reference anchors: sequence-decision + relational families (SURVEY.md
§2.4); siblings: guarded_sequence_match (segment machinery),
nation_trade_volume_q7 (the join shape, ext64), market_share_q8,
nation_rank_concordance (nation-level matrices).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

BURN_NUM, BURN_DEN = 37, 100


# --------------------------------------------------------------------------
# secretary_stopping
# --------------------------------------------------------------------------


def q_secretary_stopping(sf_dir: str, n_parts: int | None = None):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )

    def per_part(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = pc.cast(group.column("ts"), pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        v = np.round(group.column("value").to_numpy() * 100.0).astype(
            np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, v = uid[order], v[order]
        n = len(uid)
        seg_mask = np.empty(n, dtype=bool)
        seg_mask[0] = True
        np.not_equal(uid[1:], uid[:-1], out=seg_mask[1:])
        seg_start_idx = np.flatnonzero(seg_mask)
        seg_len = np.diff(np.append(seg_start_idx, n)).astype(np.int64)
        seg_start = np.repeat(seg_start_idx, seg_len)
        idx = np.arange(n, dtype=np.int64)
        rn = idx - seg_start + 1
        # segmented cummax via the ramp trick: offset each segment by a
        # per-SEGMENT-ID ramp step larger than any cents value, so the
        # running max can never leak across a segment boundary, then undo
        seg_id = np.cumsum(seg_mask) - 1
        # the ramp assumes |cents| < 2^40 and seg_id * 2^40 < 2^63 —
        # fail loudly at the scale limit instead of corrupting thresholds
        assert (n == 0 or
                (np.abs(v).max() < (np.int64(1) << 40)
                 and seg_id[-1] < (np.int64(1) << 22))), \
            "secretary_stopping ramp overflow: |cents| or segment count"
        ramp = seg_id * (np.int64(1) << 40)
        cm = v + ramp
        np.maximum.accumulate(cm, out=cm)
        cm = cm - ramp
        r = (BURN_NUM * seg_len) // BURN_DEN  # burn-in length per user
        thr_pos = seg_start_idx + r - 1
        thr = np.where(r > 0, cm[np.clip(thr_pos, 0, n - 1)], np.int64(-1))
        thr_row = np.repeat(thr, seg_len)
        r_row = np.repeat(r, seg_len)
        qual = (rn > r_row) & (v > thr_row)
        big = np.int64(1) << 62
        rn_or_big = np.where(qual, rn, big)
        first_q = np.minimum.reduceat(rn_or_big, seg_start_idx)
        stop_pos = np.where(first_q < big, first_q, seg_len)
        stop_idx = seg_start_idx + stop_pos - 1
        stop_cents = v[stop_idx]
        seg_max = np.maximum.reduceat(v, seg_start_idx)
        return pa.table({
            "user_id": pa.array(uid[seg_start_idx], type=pa.int64()),
            "n_events": pa.array(seg_len, type=pa.int64()),
            "burn_in": pa.array(r, type=pa.int64()),
            "stop_pos": pa.array(stop_pos, type=pa.int64()),
            "stop_cents": pa.array(stop_cents, type=pa.int64()),
            "was_best": pa.array(
                (stop_cents == seg_max).astype(np.int64)),
        })

    return hash_exchange(ds, "user_id", per_part, n_parts)


SQL_SECRETARY_STOPPING = f"""
WITH seq AS MATERIALIZED (
  SELECT user_id,
         CAST(ROUND(value * 100) AS BIGINT) AS v,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
), meta AS MATERIALIZED (
  SELECT user_id, COUNT(*) AS n,
         ({BURN_NUM} * COUNT(*)) // {BURN_DEN} AS r,
         MAX(v) AS vmax
  FROM seq GROUP BY 1
), thr AS (
  SELECT s.user_id, COALESCE(MAX(s.v), -1) AS t
  FROM meta m LEFT JOIN seq s
    ON s.user_id = m.user_id AND s.rn <= m.r
  GROUP BY 1
), pick AS (
  SELECT m.user_id, MIN(s.rn) AS first_q
  FROM meta m
  JOIN thr t ON t.user_id = m.user_id
  LEFT JOIN seq s ON s.user_id = m.user_id AND s.rn > m.r AND s.v > t.t
  GROUP BY 1
)
SELECT m.user_id,
       CAST(m.n AS BIGINT) AS n_events,
       CAST(m.r AS BIGINT) AS burn_in,
       CAST(COALESCE(p.first_q, m.n) AS BIGINT) AS stop_pos,
       CAST(sv.v AS BIGINT) AS stop_cents,
       CAST(CASE WHEN sv.v = m.vmax THEN 1 ELSE 0 END AS BIGINT)
         AS was_best
FROM meta m
JOIN pick p ON p.user_id = m.user_id
JOIN seq sv ON sv.user_id = m.user_id
           AND sv.rn = COALESCE(p.first_q, m.n)
"""


# --------------------------------------------------------------------------
# trade_asymmetry_matrix
# --------------------------------------------------------------------------


def q_trade_asymmetry_matrix(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate
    from .queries_ext60 import _attach_inner

    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    nk = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nname = np.array(nation.column("n_name").to_pylist(), dtype=object)
    name_of = dict(zip(nk.tolist(), nname.tolist()))

    supplier = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_nationkey"])
    sk = supplier.column("s_suppkey").to_numpy().astype(np.int64)
    s_order = np.argsort(sk)
    sk_sorted = sk[s_order]
    snk_sorted = supplier.column("s_nationkey").to_numpy().astype(
        np.int64)[s_order]

    def key_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        custk = batch.column("o_custkey").to_numpy().astype(np.int64)
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "c_custkey": pa.array(custk, type=pa.int64()),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
        })

    def key_cust(batch: pa.Table) -> pa.Table:
        custk = batch.column("c_custkey").to_numpy().astype(np.int64)
        cnk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        n = len(custk)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "c_custkey": pa.array(custk, type=pa.int64()),
            "o_orderkey": pa.nulls(n, type=pa.int64()),
            "c_nationkey": pa.array(cnk, type=pa.int64()),
        })

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(key_orders, batch_format="pyarrow", zero_copy_batch=True)
    cu = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(key_cust, batch_format="pyarrow", zero_copy_batch=True)
    pass1 = hash_exchange(
        od.union(cu), "c_custkey", lambda g: _attach_inner(g, "c_custkey"), n_parts,
    )

    def rekey_orders(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.ones(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": batch.column("c_nationkey"),
            "l_suppkey": pa.nulls(n, type=pa.int64()),
            "revenue_micro": pa.nulls(n, type=pa.int64()),
        })

    def key_lineitem(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        n = len(okey)
        return pa.table({
            "__side": pa.array(np.zeros(n, np.int64)),
            "o_orderkey": pa.array(okey, type=pa.int64()),
            "c_nationkey": pa.nulls(n, type=pa.int64()),
            "l_suppkey": batch.column("l_suppkey"),
            "revenue_micro": pa.array(cents * (100 - disc),
                                      type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    ).map_batches(key_lineitem, batch_format="pyarrow", zero_copy_batch=True)

    pass2 = hash_exchange(
        li.union(pass1.map_batches(rekey_orders, batch_format="pyarrow",
                                   zero_copy_batch=True)),
        "o_orderkey", lambda g: _attach_inner(g, "o_orderkey"), n_parts,
    )

    def directed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "snk": pa.array([], type=pa.int64()),
                "cnk": pa.array([], type=pa.int64()),
                "rev": pa.array([], type=pa.int64()),
            })
        suppk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        cnk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        rev = batch.column("revenue_micro").to_numpy().astype(np.int64)
        pos = np.clip(np.searchsorted(sk_sorted, suppk), 0,
                      len(sk_sorted) - 1)
        assert np.all(sk_sorted[pos] == suppk), \
            "FK violation: l_suppkey not in supplier"
        snk = snk_sorted[pos]
        t = pa.table({
            "snk": pa.array(snk, type=pa.int64()),
            "cnk": pa.array(cnk, type=pa.int64()),
            "rev": pa.array(rev, type=pa.int64()),
        })
        g = t.group_by(["snk", "cnk"]).aggregate([("rev", "sum")])
        return pa.table({
            "snk": g.column("snk"),
            "cnk": g.column("cnk"),
            "rev": pc.cast(g.column("rev_sum"), pa.int64()),
        })

    mat = grouped_aggregate(
        pass2.map_batches(directed, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["snk", "cnk"], [("sum", "rev", "rev")],
    ).to_pandas()  # bounded: nations x nations

    vol = {(int(r.snk), int(r.cnk)): int(r.rev) for r in mat.itertuples()}
    pairs = sorted({tuple(sorted((a, b))) for a, b in vol})
    na, nb, vab, vba, asym = [], [], [], [], []
    for a, b in pairs:
        if a == b:  # self-trade: one direction only (oracle convention)
            va, vb = vol[(a, a)], 0
        else:
            va = vol.get((a, b), 0)
            vb = vol.get((b, a), 0)
        an, bn = name_of[a], name_of[b]
        if an > bn:  # canonical: nation_a < nation_b by NAME
            an, bn, va, vb = bn, an, vb, va
        na.append(an)
        nb.append(bn)
        vab.append(va)
        vba.append(vb)
        asym.append(abs(va - vb))
    return ray.data.from_arrow(pa.table({
        "nation_a": pa.array(na, type=pa.string()),
        "nation_b": pa.array(nb, type=pa.string()),
        "vol_ab_micro": pa.array(vab, type=pa.int64()),
        "vol_ba_micro": pa.array(vba, type=pa.int64()),
        "asym_micro": pa.array(asym, type=pa.int64()),
    }))


SQL_TRADE_ASYMMETRY_MATRIX = """
WITH directed AS MATERIALIZED (
  SELECT ns.n_name AS sn, nc.n_name AS cn,
         SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
           AS rev
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation ns ON ns.n_nationkey = s.s_nationkey
  JOIN nation nc ON nc.n_nationkey = c.c_nationkey
  GROUP BY 1, 2
)
SELECT LEAST(sn, cn) AS nation_a,
       GREATEST(sn, cn) AS nation_b,
       CAST(COALESCE(SUM(CASE WHEN sn = LEAST(sn, cn) THEN rev END), 0)
            AS BIGINT) AS vol_ab_micro,
       CAST(COALESCE(SUM(CASE WHEN sn = GREATEST(sn, cn) AND sn <> cn
                              THEN rev END), 0) AS BIGINT)
         AS vol_ba_micro,
       CAST(abs(COALESCE(SUM(CASE WHEN sn = LEAST(sn, cn) THEN rev END), 0)
                - COALESCE(SUM(CASE WHEN sn = GREATEST(sn, cn)
                               AND sn <> cn THEN rev END), 0)) AS BIGINT)
         AS asym_micro
FROM directed
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext174():
    return {
        "secretary_stopping": q_secretary_stopping,
        "trade_asymmetry_matrix": q_trade_asymmetry_matrix,
    }


def build_oracles_ext174():
    return {
        "secretary_stopping": SQL_SECRETARY_STOPPING,
        "trade_asymmetry_matrix": SQL_TRADE_ASYMMETRY_MATRIX,
    }
