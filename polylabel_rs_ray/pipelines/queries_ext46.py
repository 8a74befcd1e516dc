"""Round-3 extension operators, batch 46: dataset drift monitoring.

``value_drift_bins`` — the distribution-drift audit run between two
dataset versions (here: the first vs second half of the event stream by
time, split at the arithmetic midpoint of the global time range): the
event values are histogrammed with the repo's fixed-width binning
(``floor(value / 25)``) per half, and each bin reports its exact
two-sample chi-square contribution

    term = (n1*N2 - n2*N1)^2 / (N1 * N2 * (n1 + n2))

(the equal-weights two-sample statistic).  Numerator and denominator
are exact integers (Python / HUGEINT — they exceed int64 by design);
the reported ``chi2_term`` is ONE double division of the two exact
products, identical on both sides.  The scalar chi-square is the sum of
the (bounded, ordered) bin rows — emitted per bin precisely so no
order-dependent float accumulation exists anywhere.

Scale shape: a bounded min/max time pre-pass, then one stateless
map with map-side combined (bin, half) partials; the final aggregate is
O(bins) rows folded on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BIN_W = 25.0  # the repo histogram convention (HIST_BIN_WIDTH)


def q_value_drift_bins(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def trange(batch: pa.Table) -> pa.Table:
        tu = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "mn": pa.array([int(tu.min()) if len(tu) else 2**62], type=pa.int64()),
            "mx": pa.array([int(tu.max()) if len(tu) else -2**62], type=pa.int64()),
        })

    rng = grouped_aggregate(
        ds.map_batches(trange, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("min", "mn", "mn"), ("max", "mx", "mx")],
    ).to_pandas()
    tmid = (int(rng["mn"][0]) + int(rng["mx"][0])) // 2

    def partial(batch: pa.Table) -> pa.Table:
        tu = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        v = batch.column("value").to_numpy()
        first = (tu < tmid).astype(np.int64)
        t = pa.table({
            "bin": pa.array(np.floor(v / BIN_W).astype(np.int64), type=pa.int64()),
            "n1": pa.array(first),
            "n2": pa.array(1 - first),
        })
        out = t.group_by(["bin"]).aggregate([("n1", "sum"), ("n2", "sum")])
        return pa.table({
            "bin": out.column("bin"),
            "n1": pc.cast(out.column("n1_sum"), pa.int64()),
            "n2": pc.cast(out.column("n2_sum"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["bin"], [("sum", "n1", "n1"), ("sum", "n2", "n2")],
    ).to_pandas().sort_values("bin")  # bounded: O(bins)

    n1 = hist["n1"].to_numpy().astype(object)
    n2 = hist["n2"].to_numpy().astype(object)
    N1, N2 = int(sum(n1)), int(sum(n2))
    terms = []
    for a, b in zip(n1, n2):
        num = (int(a) * N2 - int(b) * N1) ** 2
        den = N1 * N2 * (int(a) + int(b))
        terms.append(0.0 if den == 0 else float(num) / float(den))
    t = pa.table({
        "bin": pa.array(hist["bin"].to_numpy().astype(np.int64), type=pa.int64()),
        "n_first": pa.array(hist["n1"].to_numpy().astype(np.int64), type=pa.int64()),
        "n_second": pa.array(hist["n2"].to_numpy().astype(np.int64), type=pa.int64()),
        "chi2_term": pa.array(terms, type=pa.float64()),
    })
    return ray.data.from_arrow(t)


SQL_VALUE_DRIFT_BINS = f"""
WITH rng AS (
  SELECT (MIN(epoch_us(ts)) + MAX(epoch_us(ts))) // 2 AS tmid FROM events
), d AS (
  SELECT CAST(FLOOR(value / {BIN_W!r}) AS BIGINT) AS bin,
         CASE WHEN epoch_us(ts) < (SELECT tmid FROM rng) THEN 1 ELSE 0 END AS f
  FROM events
), h AS (
  SELECT bin, CAST(SUM(f) AS HUGEINT) AS n1,
         CAST(SUM(1 - f) AS HUGEINT) AS n2
  FROM d GROUP BY bin
), tot AS (
  SELECT CAST(SUM(n1) AS HUGEINT) AS t1, CAST(SUM(n2) AS HUGEINT) AS t2 FROM h
)
SELECT CAST(bin AS BIGINT) AS bin,
       CAST(n1 AS BIGINT) AS n_first,
       CAST(n2 AS BIGINT) AS n_second,
       CASE WHEN t1 * t2 * (n1 + n2) = 0 THEN 0.0
            ELSE CAST((n1 * t2 - n2 * t1) * (n1 * t2 - n2 * t1) AS DOUBLE)
                 / CAST(t1 * t2 * (n1 + n2) AS DOUBLE)
       END AS chi2_term
FROM h, tot
"""


def build_queries_ext46() -> dict:
    return {"value_drift_bins": q_value_drift_bins}


def build_oracles_ext46() -> dict:
    return {"value_drift_bins": SQL_VALUE_DRIFT_BINS}
