"""Round-3 extension operators, batch 155: isotonic regression.

``isotonic_price_size`` — weighted isotonic regression (PAVA) of part
retail price (exact cents) on ``p_size``: the calibration primitive of
an ML pipeline.  The engine reduces the bounded (size → Σcents, n)
histogram distributed, then runs the integer PAVA stack merge on the
driver (merge while prev·cur_den ≥ cur·prev_den — cross-multiplied, no
division), emitting each size's fitted value as the exact rational
(block Σcents, block n).  The oracle does NOT share the PAVA code: it
replays the closed-form minimax characterization ``fit_k = max_{i≤k}
min_{j≥k} avg(i..j)`` with HUGEINT cross-multiplied rational argmin /
argmax (NOT EXISTS dominance), then recovers the canonical block
representation from the fit's level sets — PAVA's uniqueness theorem is
what the test proves (fit == minimax at every point).

Reference anchors: regression family (SURVEY.md §2.4); sibling:
ols_price_model (exact regression by determinants).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# isotonic_price_size
# --------------------------------------------------------------------------


def q_isotonic_price_size(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                               columns=["p_size", "p_retailprice"])

    def hist(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "sz": pc.cast(batch.column("p_size"), pa.int64()),
            "cents": pa.array(
                np.round(batch.column("p_retailprice").to_numpy() * 100.0)
                .astype(np.int64), type=pa.int64()),
            "one": pa.array(np.ones(len(batch), dtype=np.int64)),
        })
        out = t.group_by(["sz"]).aggregate([("cents", "sum"),
                                            ("one", "sum")])
        return pa.table({
            "sz": out.column("sz"),
            "s": pc.cast(out.column("cents_sum"), pa.int64()),
            "n": pc.cast(out.column("one_sum"), pa.int64()),
        })

    h = grouped_aggregate(
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True),
        ["sz"], [("sum", "s", "s"), ("sum", "n", "n")],
    ).to_pandas().sort_values("sz")  # bounded: distinct sizes

    sizes = h["sz"].to_numpy().astype(np.int64)
    S = h["s"].to_numpy().astype(np.int64)
    N = h["n"].to_numpy().astype(np.int64)
    # integer PAVA stack merge: pool while prev avg >= cur avg
    # (cross-multiplied — no division, no float)
    blocks: list[list[int]] = []  # [sum, cnt, span]
    for s, n in zip(S, N):
        cur = [int(s), int(n), 1]
        while blocks and blocks[-1][0] * cur[1] >= cur[0] * blocks[-1][1]:
            p = blocks.pop()
            cur = [p[0] + cur[0], p[1] + cur[1], p[2] + cur[2]]
        blocks.append(cur)
    fit_num, fit_den = [], []
    for b in blocks:
        fit_num += [b[0]] * b[2]
        fit_den += [b[1]] * b[2]
    return ray.data.from_arrow(pa.table({
        "sz": pa.array(sizes, type=pa.int64()),
        "raw_sum_cents": pa.array(S, type=pa.int64()),
        "raw_n": pa.array(N, type=pa.int64()),
        "fit_num": pa.array(fit_num, type=pa.int64()),
        "fit_den": pa.array(fit_den, type=pa.int64()),
    }))


# Oracle: the minimax characterization fit_k = max_{i<=k} min_{j>=k}
# avg(i..j), evaluated with exact cross-multiplied rational dominance,
# then the canonical (block sum, block count) representation recovered
# from the fit's level sets — independent of the engine's PAVA code.
SQL_ISOTONIC_PRICE_SIZE = """
WITH h AS MATERIALIZED (
  SELECT p_size AS sz,
         SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS s,
         COUNT(*) AS n
  FROM part GROUP BY 1
), ord AS MATERIALIZED (
  SELECT sz, s, n, ROW_NUMBER() OVER (ORDER BY sz) AS k FROM h
), pre AS MATERIALIZED (
  SELECT k, sz, s, n,
         SUM(s) OVER (ORDER BY k) AS ps,
         SUM(n) OVER (ORDER BY k) AS pn
  FROM ord
), iv AS MATERIALIZED (
  SELECT a.k AS i, b.k AS j,
         CAST(b.ps - COALESCE(pa.ps, 0) AS HUGEINT) AS num,
         CAST(b.pn - COALESCE(pa.pn, 0) AS HUGEINT) AS den
  FROM pre a
  JOIN pre b ON b.k >= a.k
  LEFT JOIN pre pa ON pa.k = a.k - 1
), imin AS MATERIALIZED (
  -- for each (start i, point k): min over ends j >= k, ties to min j
  SELECT g.k, v.i, v.j, v.num, v.den
  FROM pre g
  JOIN iv v ON v.i <= g.k AND v.j >= g.k
  WHERE NOT EXISTS (
    SELECT 1 FROM iv w
    WHERE w.i = v.i AND w.j >= g.k
      AND (w.num * v.den < v.num * w.den
           OR (w.num * v.den = v.num * w.den AND w.j < v.j))
  )
), fit AS MATERIALIZED (
  -- outer max over starts i <= k, ties to min i
  SELECT m.k, m.num, m.den
  FROM imin m
  WHERE NOT EXISTS (
    SELECT 1 FROM imin w
    WHERE w.k = m.k
      AND (w.num * m.den > m.num * w.den
           OR (w.num * m.den = m.num * w.den AND w.i < m.i))
  )
), brk AS MATERIALIZED (
  SELECT f.k,
         CASE WHEN p.k IS NULL
                   OR p.num * f.den <> f.num * p.den
              THEN 1 ELSE 0 END AS is_break
  FROM fit f LEFT JOIN fit p ON p.k = f.k - 1
), blk AS MATERIALIZED (
  SELECT k, SUM(is_break) OVER (ORDER BY k) AS bid FROM brk
), bstat AS MATERIALIZED (
  SELECT b.bid, SUM(o.s) AS bs, SUM(o.n) AS bn
  FROM blk b JOIN ord o USING (k) GROUP BY 1
)
SELECT CAST(o.sz AS BIGINT) AS sz,
       CAST(o.s AS BIGINT) AS raw_sum_cents,
       CAST(o.n AS BIGINT) AS raw_n,
       CAST(t.bs AS BIGINT) AS fit_num,
       CAST(t.bn AS BIGINT) AS fit_den
FROM ord o JOIN blk b USING (k) JOIN bstat t USING (bid)
"""


def build_queries_ext155() -> dict:
    return {
        "isotonic_price_size": q_isotonic_price_size,
    }


def build_oracles_ext155() -> dict:
    return {
        "isotonic_price_size": SQL_ISOTONIC_PRICE_SIZE,
    }
