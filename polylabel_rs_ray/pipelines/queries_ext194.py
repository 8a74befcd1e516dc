"""Round-3 extension operators, batch 194: lattice facility location +
bullwhip variance moments.

``tile_facility_location`` — the two classic single-facility
objectives over the res-5 lattice, solved exactly: the 1-CENTER
(cell minimizing the maximum Chebyshev distance to any occupied
cell) and the 1-MEDIAN (cell minimizing the SUM of Chebyshev
distances), ties to smallest (ix, iy); candidates are ALL lattice
cells.  Emitted one row per objective with the argmin cell and its
value.  Engine: the bounded (cells × occupied) distance tensor with
vectorized max/sum reductions.  Oracle: grid × occ aggregation with
window argmin picks — identical semantics, no tensor.

``bullwhip_moments`` — the bullwhip-effect diagnostic kept exact:
for the weekly ORDER counts and weekly SHIPMENT (lineitem) counts,
the integer variance numerator ``ssd = n·Σx² − (Σx)²`` (n-scaled sum
of squared deviations) plus n and Σx, one row per series.  The
bullwhip ratio itself (Var_orders/Var_ships) is an exact-rational
comparison of the two rows — pytest cross-multiplies; nothing float
crosses the oracle hash.  Weeks are epoch-day // 7 (the established
calendar identity).  Distributed shape: per-week counts through the
map-side combine; moments are a bounded fold.

Reference anchors: operations-research + supply-chain families
(SURVEY.md §2.4); siblings: tile_chebyshev_dt / tile_sedt (distance
fields), balance_skewness_moments (integer moment contracts),
users_every_week (week bucketing).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

FAC_RES = 5


# --------------------------------------------------------------------------
# tile_facility_location
# --------------------------------------------------------------------------


def q_tile_facility_location(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, FAC_RES)
    n = lat.shape[0]
    ox, oy = np.nonzero(lat > 0)
    gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cx = gx.ravel().astype(np.int64)
    cy = gy.ravel().astype(np.int64)
    d = np.maximum(np.abs(cx[:, None] - ox[None, :]),
                   np.abs(cy[:, None] - oy[None, :]))
    dmax = d.max(axis=1)
    dsum = d.sum(axis=1)
    rows = []
    for name, vals in (("center", dmax), ("median", dsum)):
        order = np.lexsort((cy, cx, vals))
        i = order[0]
        rows.append((name, int(cx[i]), int(cy[i]), int(vals[i])))
    return ray.data.from_arrow(pa.table({
        "objective": pa.array([r[0] for r in rows], type=pa.string()),
        "ix": pa.array([r[1] for r in rows], type=pa.int64()),
        "iy": pa.array([r[2] for r in rows], type=pa.int64()),
        "value": pa.array([r[3] for r in rows], type=pa.int64()),
    }))


def _sql_tile_facility_location() -> str:
    from .queries_ext156 import _sql_grid_cte

    return _sql_grid_cte(FAC_RES) + """
, scored AS MATERIALIZED (
  SELECT g.ix, g.iy,
         MAX(GREATEST(abs(g.ix - o.ix), abs(g.iy - o.iy))) AS dmax,
         SUM(GREATEST(abs(g.ix - o.ix), abs(g.iy - o.iy))) AS dsum
  FROM grid g, occ o
  GROUP BY 1, 2
)
SELECT objective, ix, iy, CAST(value AS BIGINT) AS value FROM (
  SELECT 'center' AS objective, ix, iy, dmax AS value,
         ROW_NUMBER() OVER (ORDER BY dmax, ix, iy) AS rn
  FROM scored
  UNION ALL
  SELECT 'median', ix, iy, dsum,
         ROW_NUMBER() OVER (ORDER BY dsum, ix, iy)
  FROM scored
) WHERE rn = 1
"""


# --------------------------------------------------------------------------
# bullwhip_moments
# --------------------------------------------------------------------------


def q_bullwhip_moments(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def o_prep(batch: pa.Table) -> pa.Table:
        wk = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
              // 86_400_000_000) // 7
        return pa.table({
            "series": pa.array(["orders"] * len(wk), type=pa.string()),
            "week": pa.array(wk, type=pa.int64()),
            "one": pa.array(np.ones(len(wk), dtype=np.int64)),
        })

    def l_prep(batch: pa.Table) -> pa.Table:
        wk = (pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
              // 86_400_000_000) // 7
        return pa.table({
            "series": pa.array(["ships"] * len(wk), type=pa.string()),
            "week": pa.array(wk, type=pa.int64()),
            "one": pa.array(np.ones(len(wk), dtype=np.int64)),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate"]).map_batches(
        o_prep, batch_format="pyarrow", zero_copy_batch=True)
    ships = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_shipdate"]).map_batches(
        l_prep, batch_format="pyarrow", zero_copy_batch=True)
    weekly = grouped_aggregate(
        orders.union(ships),
        ["series", "week"], [("sum", "one", "n")],
    ).to_pandas()  # bounded: 2 x weeks

    out = []
    for name, grp in weekly.groupby("series"):
        x = grp["n"].to_numpy().astype(np.int64)
        n = len(x)
        s1 = int(x.sum())
        s2 = int((x * x).sum())
        out.append((name, n, s1, n * s2 - s1 * s1))
    out.sort()
    return ray.data.from_arrow(pa.table({
        "series": pa.array([r[0] for r in out], type=pa.string()),
        "n_weeks": pa.array([r[1] for r in out], type=pa.int64()),
        "total": pa.array([r[2] for r in out], type=pa.int64()),
        "ssd_scaled": pa.array([r[3] for r in out], type=pa.int64()),
    }))


SQL_BULLWHIP_MOMENTS = """
WITH weekly AS MATERIALIZED (
  SELECT series, week, CAST(COUNT(*) AS BIGINT) AS n FROM (
    SELECT 'orders' AS series,
           (CAST(o_orderdate AS DATE) - DATE '1970-01-01') // 7 AS week
    FROM orders
    UNION ALL
    SELECT 'ships',
           (CAST(l_shipdate AS DATE) - DATE '1970-01-01') // 7
    FROM lineitem
  ) GROUP BY 1, 2
)
SELECT series,
       CAST(COUNT(*) AS BIGINT) AS n_weeks,
       CAST(SUM(n) AS BIGINT) AS total,
       CAST(COUNT(*) * SUM(n * n) - SUM(n) * SUM(n) AS BIGINT)
         AS ssd_scaled
FROM weekly GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext194():
    return {
        "tile_facility_location": q_tile_facility_location,
        "bullwhip_moments": q_bullwhip_moments,
    }


def build_oracles_ext194():
    return {
        "tile_facility_location": _sql_tile_facility_location(),
        "bullwhip_moments": SQL_BULLWHIP_MOMENTS,
    }
