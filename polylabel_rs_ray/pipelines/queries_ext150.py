"""Round-3 extension operators, batch 150: embedding energy-band label
composition + weekend order premium.

``sq8_energy_label_matrix`` — the representation-quality slice "do
class labels concentrate in embedding-norm bands": every vector's SQ8
integer energy ``Σ code²`` (exact int64, the sq8_dim_profile kernel
transposed) is bucketed by the exact energy quartiles (lower-quantile
convention over the bounded distinct-energy histogram, bucket =
#boundaries ≤ energy) and cross-tabulated with the class label — a
quantile-bucket join on the embeddings table.  Bounded 4×10 output,
zero cells included.  Oracle: the shared codes CTE + the ROW_NUMBER
boundary idiom.

``weekend_order_premium`` — the two-class pricing contrast: order
count and exact revenue cents for weekend vs weekday orders (epoch-
day mod-7 ∈ {2,3} = Sat/Sun, the ext138-pinned identity), emitted as
the two class rows with exact integer sums so the premium ratio is a
downstream rational.  One bounded aggregate.

Reference anchors: similarity + calendar families (SURVEY.md §2.4);
siblings: sq8_dim_profile / sq8_1nn_label_audit (integer code
kernels), balance_decile_order_stats (quantile-bucket join),
weekend_share_histogram (calendar identity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
ENERGY_QUARTILES = (1, 2, 3)


# --------------------------------------------------------------------------
# sq8_energy_label_matrix
# --------------------------------------------------------------------------


def q_sq8_energy_label_matrix(sf_dir: str):
    from .agg import grouped_aggregate
    from .queries_ext32 import _minmax, _quantize
    from .sim import embedding_matrix

    import ray
    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["embedding", "label"])

    def energies(batch: pa.Table) -> pa.Table:
        c = _quantize(embedding_matrix(batch), mn, span)
        e = (c * c).sum(axis=1)
        return pa.table({
            "energy": pa.array(e, type=pa.int64()),
            "label": pc.cast(batch.column("label"), pa.int64()),
        })

    ev = ds.map_batches(energies, batch_format="pyarrow",
                        zero_copy_batch=True)

    # bounded distinct-energy histogram -> exact quartile boundaries
    def ehist(batch: pa.Table) -> pa.Table:
        t = batch.select(["energy"])
        out = t.group_by(["energy"]).aggregate([("energy", "count")])
        return pa.table({
            "energy": out.column("energy"),
            "n": pc.cast(out.column("energy_count"), pa.int64()),
        })

    h = grouped_aggregate(
        ev.map_batches(ehist, batch_format="pyarrow", zero_copy_batch=True),
        ["energy"], [("sum", "n", "n")],
    ).to_pandas().sort_values("energy")
    e = h["energy"].to_numpy().astype(np.int64)
    n = h["n"].to_numpy().astype(np.int64)
    cum = np.cumsum(n)
    total = int(cum[-1])
    bounds = np.array(
        [e[np.searchsorted(cum, (total - 1) * j // 4 + 1)]
         for j in ENERGY_QUARTILES], dtype=np.int64)

    def bucketed(batch: pa.Table) -> pa.Table:
        en = batch.column("energy").to_numpy().astype(np.int64)
        b = np.searchsorted(bounds, en, side="right").astype(np.int64)
        t = pa.table({
            "energy_band": pa.array(b, type=pa.int64()),
            "label": batch.column("label"),
        })
        out = t.group_by(["energy_band", "label"]).aggregate(
            [("label", "count")])
        return pa.table({
            "energy_band": out.column("energy_band"),
            "label": out.column("label"),
            "n": pc.cast(out.column("label_count"), pa.int64()),
        })

    m = grouped_aggregate(
        ev.map_batches(bucketed, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["energy_band", "label"], [("sum", "n", "n")],
    ).to_pandas()

    labels = sorted(m["label"].unique())
    got = {(int(r.energy_band), int(r.label)): int(r.n)
           for r in m.itertuples()}
    bb, ll, nn_ = [], [], []
    for b in range(4):
        for lab in labels:
            bb.append(b)
            ll.append(int(lab))
            nn_.append(got.get((b, lab), 0))
    return ray.data.from_arrow(pa.table({
        "energy_band": pa.array(bb, type=pa.int64()),
        "label": pa.array(ll, type=pa.int64()),
        "n": pa.array(nn_, type=pa.int64()),
    }))


def _sql_sq8_energy_label_matrix() -> str:
    from .queries_ext125 import _SQL_CODES

    return _SQL_CODES + """
, en AS (
  SELECT c.vec_id, SUM(c.code * c.code) AS energy
  FROM codes c GROUP BY c.vec_id
), srt AS (
  SELECT energy, ROW_NUMBER() OVER (ORDER BY energy) AS rn,
         COUNT(*) OVER () AS d
  FROM en
), b AS (
  SELECT j.j, MIN(s.energy) AS qv
  FROM (SELECT UNNEST([1,2,3]) AS j) j
  JOIN srt s ON s.rn = (s.d - 1) * j.j // 4 + 1
  GROUP BY j.j
), banded AS (
  SELECT en.vec_id,
         (SELECT COUNT(*) FROM b WHERE b.qv <= en.energy) AS energy_band
  FROM en
), grid AS (
  SELECT g.b AS energy_band, l.label
  FROM (SELECT UNNEST(range(4)) AS b) g
  CROSS JOIN (SELECT DISTINCT label FROM embeddings) l
)
SELECT CAST(g.energy_band AS BIGINT) AS energy_band,
       CAST(g.label AS BIGINT) AS label,
       CAST(COALESCE(COUNT(e2.vec_id), 0) AS BIGINT) AS n
FROM grid g
LEFT JOIN banded bd
  JOIN embeddings e2 ON e2.vec_id = bd.vec_id
  ON bd.energy_band = g.energy_band AND e2.label = g.label
GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# weekend_order_premium
# --------------------------------------------------------------------------


def q_weekend_order_premium(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderdate", "o_totalprice"])

    def stage(batch: pa.Table) -> pa.Table:
        day = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy() \
            // DAY_US
        wknd = np.isin(day % 7, (2, 3)).astype(np.int64)
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "is_weekend": pa.array(wknd, type=pa.int64()),
            "one": pa.array(np.ones(len(day), dtype=np.int64)),
            "rev": pa.array(cents, type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["is_weekend"],
        [("sum", "one", "n_orders"), ("sum", "rev", "rev_cents")],
    )


SQL_WEEKEND_ORDER_PREMIUM = f"""
SELECT CAST(CASE WHEN (epoch_us(o_orderdate) // {DAY_US}) % 7 IN (2, 3)
            THEN 1 ELSE 0 END AS BIGINT) AS is_weekend,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS rev_cents
FROM orders GROUP BY 1
"""


def build_queries_ext150() -> dict:
    return {
        "sq8_energy_label_matrix": q_sq8_energy_label_matrix,
        "weekend_order_premium": q_weekend_order_premium,
    }


def build_oracles_ext150() -> dict:
    return {
        "sq8_energy_label_matrix": _sql_sq8_energy_label_matrix(),
        "weekend_order_premium": SQL_WEEKEND_ORDER_PREMIUM,
    }
