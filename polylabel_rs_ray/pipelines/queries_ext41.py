"""Round-3 extension operators, batch 41: spatial autocorrelation.

``morans_i_tiles`` — Moran's I over the label-point tile histogram: the
canonical geospatial clustering statistic (is point density spatially
autocorrelated, or noise?).  Rook-adjacency weights on the
``DEFAULT_TILE_RES`` lattice (n x n = 32 x 32 tiles, W = 4n(n-1)
directed neighbor pairs).

Exactness: with T = n^2 tiles and N total labels, the mean-deviation of
tile i is the INTEGER ``d_i = T*c_i - N`` (the statistic multiplied
through by T), so

    I = (T * sum_{i~j} d_i d_j) / (W * sum_i d_i^2)

has exact integer numerator and denominator on both sides; the reported
float is ONE division of two round-to-nearest int->double conversions —
bit-identical in numpy/Python and DuckDB (HUGEINT -> DOUBLE).

Scale shape: the corpus-scale work (read -> polylabel -> tile binning)
is the distributed label pipeline; per-batch partial (ix, iy) counts
collapse map-side to <= T rows per block, the final aggregate is <= T
rows, and the statistic folds on the driver over the BOUNDED histogram
(T = 1024 — the same convention as the other O(domain) collections).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _grid_params():
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE

    n = 1 << DEFAULT_TILE_RES
    return n, WORLD_MIN, WORLD_SIZE / n


def q_morans_i_tiles(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled

    import ray
    n, wmin, ts = _grid_params()

    def bins(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        ix = np.clip(np.floor((x - wmin) / ts).astype(np.int64), 0, n - 1)
        iy = np.clip(np.floor((y - wmin) / ts).astype(np.int64), 0, n - 1)
        t = pa.table({"ix": pa.array(ix), "iy": pa.array(iy)})
        out = t.group_by(["ix", "iy"]).aggregate([("ix", "count")])
        return pa.table({
            "ix": out.column("ix"),
            "iy": out.column("iy"),
            "c": out.column("ix_count"),
        })

    hist = grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(
            bins, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["ix", "iy"], [("sum", "c", "c")],
    ).to_pandas()  # bounded: <= n^2 rows — the tile histogram itself

    grid = np.zeros((n, n), dtype=object)  # python ints: no overflow
    for r in hist.itertuples():
        grid[int(r.ix), int(r.iy)] = int(r.c)
    T = n * n
    N = int(sum(grid.ravel()))
    d = T * grid - N  # object array of exact ints
    den = int(sum(x * x for x in d.ravel()))
    num = int(sum((d[:-1, :] * d[1:, :]).ravel())) * 2 + int(
        sum((d[:, :-1] * d[:, 1:]).ravel())
    ) * 2
    W = 4 * n * (n - 1)
    morans = 0.0 if den == 0 else float(T * num) / float(W * den)
    t = pa.table({
        "n_tiles": pa.array([T], type=pa.int64()),
        "w_pairs": pa.array([W], type=pa.int64()),
        "num": pa.array([num], type=pa.int64()),
        "den": pa.array([den], type=pa.int64()),
        "morans_i": pa.array([morans], type=pa.float64()),
    })
    return ray.data.from_arrow(t)


def _sql_morans_i_tiles() -> str:
    from .queries import _sql_dyadic_labels_cte

    n, wmin, ts = _grid_params()
    T = n * n
    W = 4 * n * (n - 1)

    def grid(c):
        return (
            f"LEAST({n - 1}, GREATEST(0, "
            f"CAST(FLOOR(({c} - ({wmin!r})) / {ts!r}) AS BIGINT)))"
        )

    return f"""
    WITH labels AS ({_sql_dyadic_labels_cte()}),
    pts AS (
      SELECT {grid('label_x')} AS ix, {grid('label_y')} AS iy FROM labels
    ), cnts AS (
      SELECT ix, iy, CAST(COUNT(*) AS HUGEINT) AS c FROM pts GROUP BY 1, 2
    ), cells AS (
      SELECT gx.i AS ix, gy.i AS iy
      FROM (SELECT unnest(range({n})) AS i) gx,
           (SELECT unnest(range({n})) AS i) gy
    ), x AS (
      SELECT g.ix, g.iy, COALESCE(c.c, 0) AS c
      FROM cells g LEFT JOIN cnts c USING (ix, iy)
    ), dev AS (
      SELECT ix, iy, {T} * c - (SELECT SUM(c) FROM x) AS d FROM x
    ), agg AS (
      SELECT
        (SELECT CAST(SUM(a.d * b.d) AS HUGEINT)
         FROM dev a JOIN dev b
           ON abs(a.ix - b.ix) + abs(a.iy - b.iy) = 1) AS num,
        (SELECT CAST(SUM(d * d) AS HUGEINT) FROM dev) AS den
    )
    SELECT CAST({T} AS BIGINT) AS n_tiles,
           CAST({W} AS BIGINT) AS w_pairs,
           CAST(num AS BIGINT) AS num,
           CAST(den AS BIGINT) AS den,
           CASE WHEN den = 0 THEN 0.0
                ELSE CAST({T} * num AS DOUBLE) / CAST({W} * den AS DOUBLE)
           END AS morans_i
    FROM agg
    """


def build_queries_ext41() -> dict:
    return {"morans_i_tiles": q_morans_i_tiles}


def build_oracles_ext41() -> dict:
    return {"morans_i_tiles": _sql_morans_i_tiles()}
