"""Round-3 extension operators, batch 199: tile perimeter census +
digital-root histogram.

``tile_perimeter_census`` — the boundary bookkeeping of the occupied
res-5 raster: the number of BORDER occupied cells (≥ 1 empty or
out-of-bounds 4-neighbor), INTERIOR occupied cells, and the total
perimeter edge count (occupied↔empty/OOB side pairs — the discrete
isoperimetric quantity; 4·cells − 2·internal-adjacencies by the
handshake identity, which pytest pins).  Engine: padded-shift masks.
Oracle: per-cell neighbor quantifiers plus an adjacency count.

``orderkey_digital_root`` — the mod-9 digit-sum class histogram of
the order keys (digital root: 0 for 0, else 1 + (k−1) mod 9): the
engine computes the closed form vectorized; the oracle computes the
DIGIT SUM iterated twice explicitly (12-digit sum, then a second
digit sum of that ≤ 108 value — two sums always suffice below 10^12)
— closed form vs literal definition.  Near-uniform class masses on
the dense key range are pinned.

Reference anchors: raster + profiling families (SURVEY.md §2.3/§2.4);
siblings: tile_morph_open_close (border rules), lattice_euler_char
(edge counting), luhn_check_digits (digit arithmetic).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PER_RES = 5


# --------------------------------------------------------------------------
# tile_perimeter_census
# --------------------------------------------------------------------------


def q_tile_perimeter_census(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, PER_RES)
    n = lat.shape[0]
    occ = lat > 0
    pad = np.zeros((n + 2, n + 2), dtype=bool)
    pad[1:-1, 1:-1] = occ
    nb_all = (pad[2:, 1:-1] & pad[:-2, 1:-1] & pad[1:-1, 2:]
              & pad[1:-1, :-2])
    interior = occ & nb_all
    border = occ & ~nb_all
    # perimeter edges: occupied side faces an empty/OOB cell
    per = 0
    for sl_occ, sl_nb in (
        (pad[1:-1, 1:-1], pad[2:, 1:-1]),
        (pad[1:-1, 1:-1], pad[:-2, 1:-1]),
        (pad[1:-1, 1:-1], pad[1:-1, 2:]),
        (pad[1:-1, 1:-1], pad[1:-1, :-2]),
    ):
        per += int((sl_occ & ~sl_nb).sum())
    return ray.data.from_arrow(pa.table({
        "n_border": pa.array([int(border.sum())], type=pa.int64()),
        "n_interior": pa.array([int(interior.sum())], type=pa.int64()),
        "perimeter_edges": pa.array([per], type=pa.int64()),
    }))


def _sql_tile_perimeter_census() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << PER_RES
    nb = """(SELECT COUNT(*) FROM occ b
            WHERE abs(b.ix - a.ix) + abs(b.iy - a.iy) = 1)"""
    inb = f"""(CASE WHEN a.ix > 0 AND a.ix < {n - 1}
                    AND a.iy > 0 AND a.iy < {n - 1}
               THEN {nb} ELSE -1 END)"""
    return _sql_grid_cte(PER_RES) + f"""
, marks AS (
  SELECT a.ix, a.iy,
         CASE WHEN {inb} = 4 THEN 1 ELSE 0 END AS interior,
         4 - {nb} AS edge_deficit
  FROM occ a
)
SELECT CAST(SUM(1 - interior) AS BIGINT) AS n_border,
       CAST(SUM(interior) AS BIGINT) AS n_interior,
       CAST(SUM(edge_deficit) AS BIGINT) AS perimeter_edges
FROM marks
"""


# --------------------------------------------------------------------------
# orderkey_digital_root
# --------------------------------------------------------------------------


def q_orderkey_digital_root(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        root = np.where(k == 0, 0, 1 + (k - 1) % 9)
        t = pa.table({
            "droot": pa.array(root, type=pa.int64()),
            "one": pa.array(np.ones(len(k), dtype=np.int64)),
        })
        g = t.group_by("droot").aggregate([("one", "sum")])
        return pa.table({
            "droot": g.column("droot"),
            "n_keys": pc.cast(g.column("one_sum"), pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["droot"], [("sum", "n_keys", "n_keys")],
    )


def _sql_orderkey_digital_root() -> str:
    d1 = " + ".join(f"((o_orderkey // {10 ** i}) % 10)"
                    for i in range(12))
    d2 = " + ".join(f"((s1 // {10 ** i}) % 10)" for i in range(3))
    return f"""
WITH s AS (
  SELECT {d1} AS s1 FROM orders
), t AS (
  SELECT CASE WHEN s1 < 10 THEN s1 ELSE {d2} END AS s2 FROM s
), u AS (
  SELECT CASE WHEN s2 < 10 THEN s2
              ELSE (s2 // 10) + (s2 % 10) END AS droot FROM t
)
SELECT CAST(droot AS BIGINT) AS droot,
       CAST(COUNT(*) AS BIGINT) AS n_keys
FROM u GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext199():
    return {
        "tile_perimeter_census": q_tile_perimeter_census,
        "orderkey_digital_root": q_orderkey_digital_root,
    }


def build_oracles_ext199():
    return {
        "tile_perimeter_census": _sql_tile_perimeter_census(),
        "orderkey_digital_root": _sql_orderkey_digital_root(),
    }
