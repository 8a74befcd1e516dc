"""Round-3 extension operators, batch 170: merged-timeline alternation
runs + Chaikin corner-cutting smoothing stats.

``stream_alternation_runs`` — run-length statistics of the MERGED
order/shipment timeline (how the two event streams interleave: run
count, longest run and item count per source), computed WITHOUT a
global sort: both sides take the total order (day, src, okey, line),
rows range-partition arithmetically on the day (each partition is a
contiguous slice of the global order — the token_packing /
late_event_audit pattern), every partition run-length-encodes its
slice vectorized, and the driver stitches the P boundary runs (a
classic segmented-RLE merge: a partition's first run fuses with the
carry when sources match; interior runs contribute per-source
count/max partials).  The oracle computes the same statistics from an
explicit global window sort (LAG boundary flags → run ids → group
sizes) — entirely different machinery.

``chaikin_smooth_stats`` — one round of Chaikin corner cutting (the
curve-subdivision dual of Douglas-Peucker's ``simplify_stats``): each
exterior ring's closed m-cycle becomes the 2m-cycle of the ¼/¾ edge
points; emitted per dyadic-fixture document are the smoothed vertex
count and the EXACT scaled sum of squared smoothed-edge lengths
(×16384 clears the /4 subdivisions squared; translation invariance
makes the value a per-fixture constant, so every document of a
fixture pins the same integer).  The engine runs the vectorized
float64 kernel over the real synthesized ring batches (dyadic values
→ every float op exact); the oracle's per-fixture constants are
computed at SQL-build time by an INDEPENDENT pure-Fraction Chaikin
fold (no code shared with the batch kernel — the diameter_stats
remediation pattern, per ADVICE r2).

Reference anchors: geometry family (SURVEY.md §2.2) + sequence
analytics; siblings: simplify_stats / hull_stats (ring-batch
stages), late_event_audit / token_packing (arithmetic range
partitions + driver prefix), returnflag_rle_stats (RLE).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions

CHAIKIN_SCALE = 16384  # (4^2)^2 * headroom: clears squared /4 dyadics
SRC_ORDER, SRC_SHIP = "order", "ship"


# --------------------------------------------------------------------------
# stream_alternation_runs
# --------------------------------------------------------------------------


def q_stream_alternation_runs(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray
    P = n_partitions(n_parts)

    def order_side(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        k1 = batch.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "sp": pa.array(np.zeros(len(day), dtype=np.int64)),
            "k1": pa.array(k1, type=pa.int64()),
            "k2": pa.array(np.zeros(len(day), dtype=np.int64)),
        })

    def ship_side(batch: pa.Table) -> pa.Table:
        day = (pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
               // 86_400_000_000)
        k1 = batch.column("l_orderkey").to_numpy().astype(np.int64)
        k2 = pc.cast(batch.column("l_linenumber"), pa.int64()).to_numpy()
        return pa.table({
            "day": pa.array(day, type=pa.int64()),
            "sp": pa.array(np.ones(len(day), dtype=np.int64)),
            "k1": pa.array(k1, type=pa.int64()),
            "k2": pa.array(k2, type=pa.int64()),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"],
    ).map_batches(order_side, batch_format="pyarrow", zero_copy_batch=True)
    ships = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_shipdate"],
    ).map_batches(ship_side, batch_format="pyarrow", zero_copy_batch=True)
    merged = orders.union(ships)

    # bounded pre-pass: global day range -> contiguous range partitions
    def day_range(batch: pa.Table) -> pa.Table:
        d = batch.column("day").to_numpy()
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "mn": pa.array([int(d.min())], type=pa.int64()),
            "mx": pa.array([int(d.max())], type=pa.int64()),
        })

    rng = grouped_aggregate(
        merged.map_batches(day_range, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["k"], [("min", "mn", "mn"), ("max", "mx", "mx")],
    ).to_pandas()
    dmin, dmax = int(rng["mn"][0]), int(rng["mx"][0])
    span = max(dmax - dmin + 1, 1)

    def to_parts(batch: pa.Table) -> pa.Table:
        d = batch.column("day").to_numpy().astype(np.int64)
        part = np.clip((d - dmin) * P // span, 0, P - 1)
        return batch.append_column(
            "part", pa.array(part, type=pa.int64()))

    parted = merged.map_batches(
        to_parts, batch_format="pyarrow", zero_copy_batch=True)

    def rle_summary(group: pa.Table) -> pa.Table:
        part = int(group.column("part")[0].as_py())
        day = group.column("day").to_numpy().astype(np.int64)
        sp = group.column("sp").to_numpy().astype(np.int64)
        k1 = group.column("k1").to_numpy().astype(np.int64)
        k2 = group.column("k2").to_numpy().astype(np.int64)
        order = np.lexsort((k2, k1, sp, day))
        sp = sp[order]
        n = len(sp)
        starts = np.flatnonzero(np.r_[True, sp[1:] != sp[:-1]])
        lens = np.diff(np.append(starts, n)).astype(np.int64)
        srcs = sp[starts]
        nruns = len(starts)
        # interior runs (exclude the first and last run of the slice)
        int_runs = np.zeros(2, dtype=np.int64)
        int_max = np.zeros(2, dtype=np.int64)
        if nruns > 2:
            for s in (0, 1):
                m = srcs[1:-1] == s
                int_runs[s] = int(m.sum())
                if m.any():
                    int_max[s] = int(lens[1:-1][m].max())
        return pa.table({
            "part": pa.array([part], type=pa.int64()),
            "n_rows": pa.array([n], type=pa.int64()),
            "n_runs": pa.array([nruns], type=pa.int64()),
            "first_src": pa.array([int(srcs[0])], type=pa.int64()),
            "first_len": pa.array([int(lens[0])], type=pa.int64()),
            "last_src": pa.array([int(srcs[-1])], type=pa.int64()),
            "last_len": pa.array([int(lens[-1])], type=pa.int64()),
            "int_runs_0": pa.array([int(int_runs[0])], type=pa.int64()),
            "int_max_0": pa.array([int(int_max[0])], type=pa.int64()),
            "int_runs_1": pa.array([int(int_runs[1])], type=pa.int64()),
            "int_max_1": pa.array([int(int_max[1])], type=pa.int64()),
            "n_orders": pa.array([int((sp == 0).sum())], type=pa.int64()),
            "n_ships": pa.array([int((sp == 1).sum())], type=pa.int64()),
        })

    summ = group_map(parted, "part", rle_summary).to_pandas()  # <= P rows
    summ = summ.sort_values("part").reset_index(drop=True)

    n_runs = np.zeros(2, dtype=np.int64)
    longest = np.zeros(2, dtype=np.int64)
    n_items = np.zeros(2, dtype=np.int64)
    carry_src, carry_len = -1, 0

    def close_carry():
        nonlocal carry_src, carry_len
        if carry_src >= 0:
            n_runs[carry_src] += 1
            longest[carry_src] = max(longest[carry_src], carry_len)

    for row in summ.itertuples():
        n_items[0] += int(row.n_orders)
        n_items[1] += int(row.n_ships)
        for s in (0, 1):
            n_runs[s] += int(getattr(row, f"int_runs_{s}"))
            longest[s] = max(longest[s],
                             int(getattr(row, f"int_max_{s}")))
        if int(row.n_runs) == 1:
            # single run: merge with or replace the carry
            if carry_src == int(row.first_src):
                carry_len += int(row.first_len)
            else:
                close_carry()
                carry_src, carry_len = int(row.first_src), int(row.first_len)
            continue
        # first run
        if carry_src == int(row.first_src):
            carry_len += int(row.first_len)
            close_carry()
            carry_src, carry_len = -1, 0
        else:
            close_carry()
            n_runs[int(row.first_src)] += 1
            longest[int(row.first_src)] = max(
                longest[int(row.first_src)], int(row.first_len))
        carry_src, carry_len = int(row.last_src), int(row.last_len)
    close_carry()

    ray_mod = ray
    return ray_mod.data.from_arrow(pa.table({
        "src": pa.array([SRC_ORDER, SRC_SHIP], type=pa.string()),
        "n_runs": pa.array(n_runs, type=pa.int64()),
        "longest_run": pa.array(longest, type=pa.int64()),
        "n_items": pa.array(n_items, type=pa.int64()),
    }))


SQL_STREAM_ALTERNATION_RUNS = f"""
WITH m AS MATERIALIZED (
  SELECT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT)
           AS day,
         0 AS sp, o_orderkey AS k1, 0 AS k2
  FROM orders
  UNION ALL
  SELECT CAST(CAST(l_shipdate AS DATE) - DATE '1970-01-01' AS BIGINT),
         1, l_orderkey, l_linenumber
  FROM lineitem
), seq AS (
  SELECT sp,
         ROW_NUMBER() OVER (ORDER BY day, sp, k1, k2) AS rn,
         LAG(sp) OVER (ORDER BY day, sp, k1, k2) AS prev
  FROM m
), runs AS (
  SELECT sp, rn,
         SUM(CASE WHEN prev IS NULL OR prev <> sp THEN 1 ELSE 0 END)
           OVER (ORDER BY rn) AS run_id
  FROM seq
), per_run AS (
  SELECT sp, run_id, COUNT(*) AS len FROM runs GROUP BY 1, 2
)
SELECT CASE sp WHEN 0 THEN '{SRC_ORDER}' ELSE '{SRC_SHIP}' END AS src,
       CAST(COUNT(*) AS BIGINT) AS n_runs,
       CAST(MAX(len) AS BIGINT) AS longest_run,
       CAST(SUM(len) AS BIGINT) AS n_items
FROM per_run
GROUP BY 1
"""


# --------------------------------------------------------------------------
# chaikin_smooth_stats
# --------------------------------------------------------------------------


def _chaikin_cycle(ext: np.ndarray) -> np.ndarray:
    """One Chaikin round on a closed cycle given WITHOUT the duplicate
    closing vertex: (m, 2) -> (2m, 2) float64 (exact for dyadics)."""
    nxt = np.roll(ext, -1, axis=0)
    q = 0.75 * ext + 0.25 * nxt
    r = 0.25 * ext + 0.75 * nxt
    out = np.empty((2 * len(ext), 2), dtype=np.float64)
    out[0::2] = q
    out[1::2] = r
    return out


def _strip_closing(ring: np.ndarray) -> np.ndarray:
    if len(ring) > 1 and np.array_equal(ring[0], ring[-1]):
        return ring[:-1]
    return ring


def _chaikin_stage(batch: pa.Table) -> pa.Table:
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    nv = np.empty(len(polys), dtype=np.int64)
    s2 = np.empty(len(polys), dtype=np.int64)
    for i, rings in enumerate(polys):
        ext = _strip_closing(np.asarray(rings[0], dtype=np.float64))
        sm = _chaikin_cycle(ext)
        d = np.roll(sm, -1, axis=0) - sm
        nv[i] = len(sm)
        s2[i] = int(round(float((d * d).sum() * CHAIKIN_SCALE)))
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                type=pa.int64()),
        "n_out_vertices": pa.array(nv, type=pa.int64()),
        "seg_len2_scaled": pa.array(s2, type=pa.int64()),
    })


def q_chaikin_smooth_stats(sf_dir: str):
    from .queries_ext import _dyadic_rings_ds

    return _dyadic_rings_ds(sf_dir).map_batches(
        _chaikin_stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_chaikin_smooth_stats() -> str:
    # independent pure-Fraction Chaikin fold (shares NO code with the
    # numpy batch kernel above)
    from ..sources import docs as docs_mod
    from ..sources.fixtures import FIXTURES
    from .queries import DYADIC_FIXTURES, DYADIC_IDX, FIXTURE_CYCLE

    cn, cs = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ring = [tuple(map(Fraction, map(str, p)))
                for p in np.asarray(FIXTURES[name].rings[0]).tolist()]
        if len(ring) > 1 and ring[0] == ring[-1]:
            ring = ring[:-1]
        m = len(ring)
        sm = []
        for i in range(m):
            (x0, y0), (x1, y1) = ring[i], ring[(i + 1) % m]
            sm.append(((3 * x0 + x1) / 4, (3 * y0 + y1) / 4))
            sm.append(((x0 + 3 * x1) / 4, (y0 + 3 * y1) / 4))
        total = Fraction(0)
        for i in range(len(sm)):
            (x0, y0), (x1, y1) = sm[i], sm[(i + 1) % len(sm)]
            total += (x1 - x0) ** 2 + (y1 - y0) ** 2
        scaled = total * CHAIKIN_SCALE
        assert scaled.denominator == 1, (name, scaled)
        cn.append(f"WHEN {f} THEN {2 * m}")
        cs.append(f"WHEN {f} THEN {int(scaled)}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
SELECT doc_id AS doc_num,
       CAST(doc_id % {n} AS BIGINT) AS fixture_idx,
       CAST(CASE doc_id % {n} {' '.join(cn)} END AS BIGINT)
         AS n_out_vertices,
       CAST(CASE doc_id % {n} {' '.join(cs)} END AS BIGINT)
         AS seg_len2_scaled
FROM documents WHERE doc_id % {n} IN ({mods})
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext170():
    return {
        "stream_alternation_runs": q_stream_alternation_runs,
        "chaikin_smooth_stats": q_chaikin_smooth_stats,
    }


def build_oracles_ext170():
    return {
        "stream_alternation_runs": SQL_STREAM_ALTERNATION_RUNS,
        "chaikin_smooth_stats": _sql_chaikin_smooth_stats(),
    }
