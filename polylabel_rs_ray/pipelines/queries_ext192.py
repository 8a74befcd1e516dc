"""Round-3 extension operators, batch 192: ABC inventory classification
+ tile gradient sign histogram.

``abc_classification`` — the Pareto inventory split: parts ranked by
exact revenue cents (desc, key ties), classified A/B/C by cumulative
revenue share with INTEGER threshold tests (A while 10·cum ≤ 7·total,
B while 10·cum ≤ 9·total, C otherwise — no percentage division ever
happens); emitted per class: part count and exact revenue mass.
Distributed shape: per-part revenue through the map-side combine
(high-cardinality exchange — parts ~ rows), then the bounded ranked
fold.  Oracle: window cumulative sums with the same integer
predicates.  The class-mass sandwich (A ≥ nothing smaller classes
can't pin, but A+B+C = total and the boundary predicates) is
pytest-pinned with a scalar replay.

``tile_gradient_histogram`` — the HOG-style first-difference census
of the res-5 count lattice: for every horizontally/vertically
adjacent cell pair, the sign of the count difference (−1/0/+1), as a
per-axis histogram plus the exact total absolute gradient (the
lattice's total variation).  Engine: two shifted subtractions.
Oracle: self-joins on (ix+1, iy) / (ix, iy+1) over the dense grid
with CASE signs — the anisotropy of the label distribution in four
numbers per axis.

Reference anchors: business-analytics + raster families (SURVEY.md
§2.3/§2.4); siblings: pareto_point / skyline_parts (Pareto
machinery), balance_decile_order_stats (cumulative-share classes),
edge_orientation_spectrum / tile_heat_smooth (lattice differences).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

ABC_A_NUM, ABC_B_NUM, ABC_DEN = 7, 9, 10


# --------------------------------------------------------------------------
# abc_classification
# --------------------------------------------------------------------------


def q_abc_classification(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64())
        return pa.table({
            "part_key": batch.column("l_partkey"),
            "cents": cents,
        })

    per_part = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["part_key"], [("sum", "cents", "rev")],
    ).to_pandas()  # bounded: part domain
    per_part = per_part.sort_values(
        ["rev", "part_key"], ascending=[False, True])
    rev = per_part["rev"].to_numpy().astype(np.int64)
    total = int(rev.sum())
    cum = np.cumsum(rev)
    is_a = ABC_DEN * cum <= ABC_A_NUM * total
    is_b = ~is_a & (ABC_DEN * cum <= ABC_B_NUM * total)
    is_c = ~is_a & ~is_b
    return ray.data.from_arrow(pa.table({
        "abc_class": pa.array(["A", "B", "C"], type=pa.string()),
        "n_parts": pa.array([int(is_a.sum()), int(is_b.sum()),
                             int(is_c.sum())], type=pa.int64()),
        "revenue_cents": pa.array(
            [int(rev[is_a].sum()), int(rev[is_b].sum()),
             int(rev[is_c].sum())], type=pa.int64()),
    }))


SQL_ABC_CLASSIFICATION = f"""
WITH per_part AS MATERIALIZED (
  SELECT l_partkey,
         SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS rev
  FROM lineitem GROUP BY 1
), ranked AS MATERIALIZED (
  SELECT rev,
         SUM(rev) OVER (ORDER BY rev DESC, l_partkey
                        ROWS UNBOUNDED PRECEDING) AS cum,
         (SELECT SUM(rev) FROM per_part) AS total
  FROM per_part
), classed AS (
  SELECT rev,
         CASE WHEN {ABC_DEN} * cum <= {ABC_A_NUM} * total THEN 'A'
              WHEN {ABC_DEN} * cum <= {ABC_B_NUM} * total THEN 'B'
              ELSE 'C' END AS abc_class
  FROM ranked
), classes AS (SELECT UNNEST(['A', 'B', 'C']) AS abc_class)
SELECT c.abc_class,
       CAST(COALESCE(COUNT(x.rev), 0) AS BIGINT) AS n_parts,
       CAST(COALESCE(SUM(x.rev), 0) AS BIGINT) AS revenue_cents
FROM classes c LEFT JOIN classed x ON x.abc_class = c.abc_class
GROUP BY 1
"""


# --------------------------------------------------------------------------
# tile_gradient_histogram
# --------------------------------------------------------------------------

GRAD_RES = 5


def q_tile_gradient_histogram(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, GRAD_RES)
    dx = lat[1:, :] - lat[:-1, :]
    dy = lat[:, 1:] - lat[:, :-1]
    axes, signs, counts, absums = [], [], [], []
    for name, g in (("x", dx), ("y", dy)):
        for s in (-1, 0, 1):
            m = np.sign(g) == s
            axes.append(name)
            signs.append(s)
            counts.append(int(m.sum()))
            absums.append(int(np.abs(g[m]).sum()))
    return ray.data.from_arrow(pa.table({
        "axis": pa.array(axes, type=pa.string()),
        "sign": pa.array(signs, type=pa.int64()),
        "n_pairs": pa.array(counts, type=pa.int64()),
        "abs_grad_sum": pa.array(absums, type=pa.int64()),
    }))


def _sql_tile_gradient_histogram() -> str:
    from .queries_ext156 import _sql_grid_cte

    n = 1 << GRAD_RES
    return _sql_grid_cte(GRAD_RES) + f"""
, cellv AS MATERIALIZED (
  SELECT g.ix, g.iy, COALESCE(o.c, 0) AS v
  FROM grid g LEFT JOIN occ o ON o.ix = g.ix AND o.iy = g.iy
), grads AS (
  SELECT 'x' AS axis, b.v - a.v AS g
  FROM cellv a JOIN cellv b ON b.ix = a.ix + 1 AND b.iy = a.iy
  UNION ALL
  SELECT 'y', b.v - a.v
  FROM cellv a JOIN cellv b ON b.ix = a.ix AND b.iy = a.iy + 1
), keys AS (
  SELECT ax.axis, s.sign FROM (SELECT UNNEST(['x', 'y']) AS axis) ax,
       (SELECT UNNEST([-1, 0, 1]) AS sign) s
)
SELECT k.axis, CAST(k.sign AS BIGINT) AS sign,
       CAST(COALESCE(COUNT(g.g), 0) AS BIGINT) AS n_pairs,
       CAST(COALESCE(SUM(abs(g.g)), 0) AS BIGINT) AS abs_grad_sum
FROM keys k LEFT JOIN grads g
  ON k.axis = g.axis AND k.sign = CASE WHEN g.g > 0 THEN 1
                                       WHEN g.g < 0 THEN -1 ELSE 0 END
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext192():
    return {
        "abc_classification": q_abc_classification,
        "tile_gradient_histogram": q_tile_gradient_histogram,
    }


def build_oracles_ext192():
    return {
        "abc_classification": SQL_ABC_CLASSIFICATION,
        "tile_gradient_histogram": _sql_tile_gradient_histogram(),
    }
