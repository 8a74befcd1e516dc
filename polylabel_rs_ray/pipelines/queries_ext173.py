"""Round-3 extension operators, batch 173: Zhang-Suen skeleton thinning
+ Luhn check digits.

``tile_skeleton`` — morphological skeletonization of the occupied
res-6 lattice by the classic Zhang-Suen two-subiteration thinning
(neighbors p2..p9 clockwise from NORTH=(x, y+1), out-of-bounds
empty): a pixel is peeled when its neighbor count B ∈ [2, 6], its
0→1 transition count A == 1, and the subiteration's two corner
products vanish — iterated to fixpoint (≤ 5 rounds at the shipped scale
factors, 9 at the denser sf1 lattice; engine asserts ≤ SKEL_ROUNDS=16 —
the loud scale limit — and the oracle unrolls all SKEL_ROUNDS=16
sub-rounds, no-ops after convergence).  Emits (ix, iy, skel) for every
ORIGINALLY occupied cell (58 → 41 at sf0.001, 233 → 42 at sf0.1 —
real thinning, measured before shipping).  Engine: fully vectorized
padded-shift evaluation of B/A/corner masks.  Oracle: 16
machine-generated sub-round CTEs, each reconstructing the
neighborhood via EIGHT LEFT self-joins of the previous state and
replaying the predicates in SQL CASE arithmetic — no shift code.

``luhn_check_digits`` — the checksum op of ingest validation: the
Luhn (mod-10 double-alternate) check digit over each order key as a
12-digit payload, plus the standard double-minus-nine digit rule.
Both sides implement the published algorithm independently (numpy
digit matrix vs a 12-term SQL sum over (k // 10^i) % 10) — exact
integers end to end.  One stateless vectorized map; the histogram
sanity (all 10 digits populated) is pytest-pinned.

Reference anchors: raster/tile + data-quality families (SURVEY.md
§2.3/§2.4); siblings: tile_morph_open_close (the morphology suite),
tile_components, name_key_consistency_audit / fk_orphan_audit
(validation audits), varint_size_estimate (digitwise arithmetic).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SKEL_RES = 6
SKEL_ROUNDS = 16
LUHN_DIGITS = 12


# --------------------------------------------------------------------------
# tile_skeleton
# --------------------------------------------------------------------------


def _zs_neighbors(m: np.ndarray) -> list[np.ndarray]:
    """p2..p9 clockwise from north (x, y+1); out-of-bounds empty."""
    n = m.shape[0]
    z = np.zeros((n + 2, n + 2), dtype=bool)
    z[1:-1, 1:-1] = m
    p2 = z[1:-1, 2:]     # N  (x,   y+1)
    p3 = z[2:, 2:]       # NE (x+1, y+1)
    p4 = z[2:, 1:-1]     # E  (x+1, y)
    p5 = z[2:, :-2]      # SE (x+1, y-1)
    p6 = z[1:-1, :-2]    # S  (x,   y-1)
    p7 = z[:-2, :-2]     # SW (x-1, y-1)
    p8 = z[:-2, 1:-1]    # W  (x-1, y)
    p9 = z[:-2, 2:]      # NW (x-1, y+1)
    return [p2, p3, p4, p5, p6, p7, p8, p9]


def _zhang_suen(m: np.ndarray) -> tuple[np.ndarray, int]:
    rounds = 0
    while True:
        changed = False
        for sub in (1, 2):
            ps = _zs_neighbors(m)
            B = sum(p.astype(np.int64) for p in ps)
            seq = ps + [ps[0]]
            A = sum(((~seq[i]) & seq[i + 1]).astype(np.int64)
                    for i in range(8))
            p2, _p3, p4, _p5, p6, _p7, p8, _p9 = ps
            if sub == 1:
                c3, c4 = ~(p2 & p4 & p6), ~(p4 & p6 & p8)
            else:
                c3, c4 = ~(p2 & p4 & p8), ~(p2 & p6 & p8)
            rem = m & (B >= 2) & (B <= 6) & (A == 1) & c3 & c4
            if rem.any():
                m = m & ~rem
                changed = True
        rounds += 1
        if not changed:
            return m, rounds


def q_tile_skeleton(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, SKEL_RES)
    occ = lat > 0
    skel, rounds = _zhang_suen(occ.copy())
    assert rounds <= SKEL_ROUNDS, rounds
    ox, oy = np.nonzero(occ)
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(ox.astype(np.int64)),
        "iy": pa.array(oy.astype(np.int64)),
        "skel": pa.array(skel[ox, oy].astype(np.int64)),
    }))


def _sql_tile_skeleton() -> str:
    from .queries_ext156 import _sql_grid_cte

    # p2..p9 offsets, clockwise from north, in (dx, dy)
    offs = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1),
            (-1, 0), (-1, 1)]

    def subround(prev: str, cur: str, sub: int) -> str:
        joins = "\n".join(
            f"  LEFT JOIN {prev} n{i} ON n{i}.ix = a.ix + {dx} "
            f"AND n{i}.iy = a.iy + {dy}"
            for i, (dx, dy) in enumerate(offs, start=2))
        p = {i: f"COALESCE(n{i}.v, 0)" for i in range(2, 10)}
        b = " + ".join(p[i] for i in range(2, 10))
        ring = [p[i] for i in range(2, 10)] + [p[2]]
        a_cnt = " + ".join(
            f"(CASE WHEN {ring[i]} = 0 AND {ring[i + 1]} = 1 "
            f"THEN 1 ELSE 0 END)" for i in range(8))
        if sub == 1:
            corners = (f"({p[2]} * {p[4]} * {p[6]}) = 0 AND "
                       f"({p[4]} * {p[6]} * {p[8]}) = 0")
        else:
            corners = (f"({p[2]} * {p[4]} * {p[8]}) = 0 AND "
                       f"({p[2]} * {p[6]} * {p[8]}) = 0")
        return f""",
{cur} AS MATERIALIZED (
  SELECT a.ix, a.iy,
         CASE WHEN a.v = 1 AND ({b}) BETWEEN 2 AND 6
               AND ({a_cnt}) = 1 AND {corners}
              THEN 0 ELSE a.v END AS v
  FROM {prev} a
{joins}
)"""

    body = _sql_grid_cte(SKEL_RES)
    parts = [body + """
, s_0 AS MATERIALIZED (
  SELECT g.ix, g.iy,
         CASE WHEN EXISTS (SELECT 1 FROM occ c
                           WHERE c.ix = g.ix AND c.iy = g.iy)
              THEN 1 ELSE 0 END AS v
  FROM grid g
)"""]
    prev = "s_0"
    for r in range(1, SKEL_ROUNDS + 1):
        for sub in (1, 2):
            cur = f"s_{r}_{sub}"
            parts.append(subround(prev, cur, sub))
            prev = cur
    parts.append(f"""
SELECT o0.ix, o0.iy, CAST(f.v AS BIGINT) AS skel
FROM s_0 o0 JOIN {prev} f ON f.ix = o0.ix AND f.iy = o0.iy
WHERE o0.v = 1""")
    return "".join(parts)


# --------------------------------------------------------------------------
# luhn_check_digits
# --------------------------------------------------------------------------


def q_luhn_check_digits(sf_dir: str):
    import ray

    def stage(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        total = np.zeros(len(k), dtype=np.int64)
        for i in range(LUHN_DIGITS):
            d = (k // 10 ** i) % 10
            if i % 2 == 0:  # rightmost payload digit doubles
                d = d * 2
                d = np.where(d > 9, d - 9, d)
            total += d
        check = (10 - total % 10) % 10
        return pa.table({
            "o_orderkey": pa.array(k, type=pa.int64()),
            "check_digit": pa.array(check, type=pa.int64()),
        })

    return ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"],
    ).map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_luhn_check_digits() -> str:
    terms = []
    for i in range(LUHN_DIGITS):
        d = f"((o_orderkey // {10 ** i}) % 10)"
        if i % 2 == 0:
            terms.append(
                f"(CASE WHEN {d} * 2 > 9 THEN {d} * 2 - 9 "
                f"ELSE {d} * 2 END)")
        else:
            terms.append(d)
    s = " + ".join(terms)
    return f"""
SELECT o_orderkey,
       CAST((10 - ({s}) % 10) % 10 AS BIGINT) AS check_digit
FROM orders
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext173():
    return {
        "tile_skeleton": q_tile_skeleton,
        "luhn_check_digits": q_luhn_check_digits,
    }


def build_oracles_ext173():
    return {
        "tile_skeleton": _sql_tile_skeleton(),
        "luhn_check_digits": _sql_luhn_check_digits(),
    }
