"""Round-2 extension operators, batch 19: weighted order statistics and
grouped regression.

* ``weighted_median_price`` — weighted median (extendedprice weighted by
  quantity): the integer-histogram selector generalized to WEIGHT mass —
  one (count,min,max) pass, one weight-histogram pass, then only the
  threshold bin's rows are pulled.  Threshold = ceil(W/2) in pure
  integer arithmetic; the oracle replays it with a ties-aware RANGE
  cumulative window.
* ``price_discount_slope_by_flag`` — per-group least-squares slope with
  EXACT arbitrary-precision integer moments (the corr machinery, grouped):
  per-batch per-flag partials ship decimal strings, one constant-size
  reduce per flag derives slope_num = n*Sxy - Sx*Sy and slope_den =
  n*Sxx - Sx^2 exactly; slope_micro is the identical double division on
  both sides."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

WM_BINS = 4096


# --------------------------------------------------------------------------
# weighted median
# --------------------------------------------------------------------------


def q_weighted_median_price(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice", "l_quantity"]
    )
    B = WM_BINS

    def cw(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c": pc.cast(
                pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
                pa.int64(),
            ),
            "w": pc.cast(batch.column("l_quantity"), pa.int64()),
        })

    cds = ds.map_batches(cw, batch_format="pyarrow", zero_copy_batch=True)

    def stats(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy()
        w = batch.column("w").to_numpy()
        return pa.table({
            "W": pa.array([int(w.sum())], type=pa.int64()),
            "lo": pa.array([int(c.min()) if len(c) else 2**62], type=pa.int64()),
            "hi": pa.array([int(c.max()) if len(c) else -(2**62)], type=pa.int64()),
        })

    st = cds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    W = int(st["W"].sum())
    lo, hi = int(st["lo"].min()), int(st["hi"].max())
    span = hi - lo + 1
    half = (W + 1) // 2  # ceil(W/2), exact integers

    def whist(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy().astype(np.int64)
        w = batch.column("w").to_numpy().astype(np.int64)
        h = np.bincount((c - lo) * B // span, weights=w.astype(np.float64),
                        minlength=B).astype(np.int64)
        return pa.table({"hist": pa.array([h], type=pa.list_(pa.int64()))})

    parts = cds.map_batches(whist, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    h = np.zeros(B, dtype=np.int64)
    for row in parts["hist"]:
        h += np.asarray(row, dtype=np.int64)
    cum = np.r_[0, np.cumsum(h)]
    # first bin whose cumulative weight reaches half: cum[tb+1] >= half,
    # cum[tb] < half (searchsorted 'left' finds exactly that boundary)
    tb = int(np.searchsorted(cum, half, side="left") - 1)

    def in_bin(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy().astype(np.int64)
        m = (c - lo) * B // span == tb
        return pa.table({
            "c": pa.array(c[m], type=pa.int64()),
            "w": pc.cast(batch.column("w"), pa.int64()).filter(pa.array(m)),
        })

    got = cds.map_batches(in_bin, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    c = got["c"].to_numpy().astype(np.int64)
    w = got["w"].to_numpy().astype(np.int64)
    order = np.argsort(c, kind="stable")
    c, w = c[order], w[order]
    cumw = int(cum[tb]) + np.cumsum(w)
    wmedian = int(c[np.searchsorted(cumw, half, side="left")])
    return pa.table({
        "wmedian_cents": pa.array([wmedian], type=pa.int64()),
        "total_weight": pa.array([W], type=pa.int64()),
    })


SQL_WEIGHTED_MEDIAN_PRICE = """
    WITH v AS (
        SELECT CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS c,
               CAST(l_quantity AS BIGINT) AS w
        FROM lineitem
    ),
    o AS (SELECT c, SUM(w) OVER (ORDER BY c) AS cw FROM v),
    t AS (SELECT (SUM(w) + 1) // 2 AS half, SUM(w) AS W FROM v)
    SELECT CAST(MIN(c) AS BIGINT) AS wmedian_cents,
           CAST((SELECT W FROM t) AS BIGINT) AS total_weight
    FROM o WHERE cw >= (SELECT half FROM t)
"""


# --------------------------------------------------------------------------
# grouped exact regression slope
# --------------------------------------------------------------------------


def q_price_discount_slope_by_flag(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_discount"],
    )
    CHUNK = 50_000  # int64-safe per-chunk products

    def partial(batch: pa.Table) -> pa.Table:
        de = batch.column("l_returnflag").combine_chunks().dictionary_encode()
        gid = de.indices.to_numpy().astype(np.int64)
        flags = de.dictionary.to_pylist()
        x = pc.cast(pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
                    pa.int64()).to_numpy()
        y = pc.cast(pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
                    pa.int64()).to_numpy()
        rows = {"l_returnflag": [], "n": [], "sx": [], "sy": [], "sxx": [], "sxy": []}
        for g, flag in enumerate(flags):
            m = gid == g
            cx, cy = x[m], y[m]
            sx = sy = sxx = sxy = 0
            for s in range(0, len(cx), CHUNK):
                a, b = cx[s : s + CHUNK], cy[s : s + CHUNK]
                sx += int(a.sum()); sy += int(b.sum())
                sxx += int((a * a).sum()); sxy += int((a * b).sum())
            rows["l_returnflag"].append(flag)
            rows["n"].append(len(cx))
            rows["sx"].append(str(sx)); rows["sy"].append(str(sy))
            rows["sxx"].append(str(sxx)); rows["sxy"].append(str(sxy))
        return pa.table({
            "l_returnflag": pa.array(rows["l_returnflag"], type=pa.string()),
            "n": pa.array(rows["n"], type=pa.int64()),
            "sx": pa.array(rows["sx"]), "sy": pa.array(rows["sy"]),
            "sxx": pa.array(rows["sxx"]), "sxy": pa.array(rows["sxy"]),
        })

    def final(group: pa.Table) -> pa.Table:
        n = int(pc.sum(group.column("n")).as_py())
        sx = sum(int(v) for v in group.column("sx").to_pylist())
        sy = sum(int(v) for v in group.column("sy").to_pylist())
        sxx = sum(int(v) for v in group.column("sxx").to_pylist())
        sxy = sum(int(v) for v in group.column("sxy").to_pylist())
        num = n * sxy - sx * sy  # exact python ints
        den = n * sxx - sx * sx
        slope_micro = int(np.round(float(num) / float(den) * 1e6))
        return pa.table({
            "l_returnflag": pa.array([group.column("l_returnflag")[0].as_py()]),
            "n": pa.array([n], type=pa.int64()),
            "slope_num": pa.array([str(num)]),
            "slope_den": pa.array([str(den)]),
            "slope_micro": pa.array([slope_micro], type=pa.int64()),
        })

    return group_map(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "l_returnflag", final,
    )


SQL_PRICE_DISCOUNT_SLOPE_BY_FLAG = """
    WITH v AS (
        SELECT l_returnflag,
               CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS x,
               CAST(ROUND(l_discount * 100) AS BIGINT) AS y
        FROM lineitem
    ),
    m AS (
        SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
               SUM(CAST(x AS HUGEINT)) AS sx, SUM(CAST(y AS HUGEINT)) AS sy,
               SUM(CAST(x AS HUGEINT) * x) AS sxx,
               SUM(CAST(x AS HUGEINT) * y) AS sxy
        FROM v GROUP BY l_returnflag
    )
    SELECT l_returnflag, n,
           CAST(n * sxy - sx * sy AS VARCHAR) AS slope_num,
           CAST(n * sxx - sx * sx AS VARCHAR) AS slope_den,
           CAST(ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                    / CAST(n * sxx - sx * sx AS DOUBLE) * 1000000)
                AS BIGINT) AS slope_micro
    FROM m
"""


def build_queries_ext18() -> dict:
    return {
        "weighted_median_price": q_weighted_median_price,
        "price_discount_slope_by_flag": q_price_discount_slope_by_flag,
    }


def build_oracles_ext18() -> dict:
    return {
        "weighted_median_price": SQL_WEIGHTED_MEDIAN_PRICE,
        "price_discount_slope_by_flag": SQL_PRICE_DISCOUNT_SLOPE_BY_FLAG,
    }
