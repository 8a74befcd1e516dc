"""Round-3 extension operators, batch 198: continued-fraction expansion
+ Collatz trajectory profile.

``continued_fraction_coeffs`` — the continued-fraction expansion of
the geometric-MLE probability from ext195 (p̂ = n_gaps/(n_gaps +
Σgaps), already an exact reduced fraction): the Euclidean quotient
sequence [a0; a1, a2, ...], emitted one row per coefficient.  The
expansion IS Euclid's algorithm on (num, den), so the oracle runs it
as a single-row recursive CTE chain (divmod per step) while the
engine folds the classic loop — the convergents' reconstruction
(h_k/k_k telescoping back to exactly num/den) is pytest-pinned with
Fractions.

``collatz_residue_profile`` — the 3x+1 trajectory audit over the
BOUNDED start set {(o_orderkey mod 997) + 1} (residues, so the
profile is scale-stable and the sequential-per-start iteration stays
bounded at any corpus size): per start value, the total stopping
time (steps to reach 1) and the trajectory maximum.  Engine: one
vectorized numpy iterate over the bounded start array.  Oracle: a
recursive CTE walking every trajectory with (start, cur, step) rows
and max/argmax folds — ~10^5 bounded rows.

Reference anchors: number-theory/profiling families (SURVEY.md
§2.4); siblings: interarrival_geometric_mle (the fraction under
expansion), orderkey_spf_histogram (arithmetic profiling),
josephus_survivor (scalar recursive-chain oracles).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

COLLATZ_MOD = 997


# --------------------------------------------------------------------------
# continued_fraction_coeffs
# --------------------------------------------------------------------------


def q_continued_fraction_coeffs(sf_dir: str):
    from .queries_ext195 import q_interarrival_geometric_mle

    import ray
    mle = q_interarrival_geometric_mle(sf_dir).to_pandas().iloc[0]
    num, den = int(mle["p_num"]), int(mle["p_den"])
    coeffs = []
    a, b = num, den
    while b:
        coeffs.append(a // b)
        a, b = b, a % b
    return ray.data.from_arrow(pa.table({
        "step": pa.array(np.arange(len(coeffs), dtype=np.int64)),
        "coeff": pa.array(coeffs, type=pa.int64()),
    }))


SQL_CONTINUED_FRACTION_COEFFS = """
WITH RECURSIVE days AS MATERIALIZED (
  SELECT DISTINCT CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01'
                       AS BIGINT) AS day
  FROM orders
), gaps AS MATERIALIZED (
  SELECT day - LAG(day) OVER (ORDER BY day) - 1 AS g FROM days
  QUALIFY g IS NOT NULL
), frac AS MATERIALIZED (
  SELECT CAST(COUNT(*) // gcd(COUNT(*), COUNT(*) + SUM(g)) AS BIGINT)
           AS num,
         CAST((COUNT(*) + SUM(g)) // gcd(COUNT(*), COUNT(*) + SUM(g))
              AS BIGINT) AS den
  FROM gaps
), euclid AS (
  SELECT 0 AS step, num AS a, den AS b FROM frac
  UNION ALL
  SELECT step + 1, b, a % b FROM euclid WHERE b <> 0
)
SELECT CAST(step AS BIGINT) AS step,
       CAST(a // b AS BIGINT) AS coeff
FROM euclid WHERE b <> 0
"""


# --------------------------------------------------------------------------
# collatz_residue_profile
# --------------------------------------------------------------------------


def q_collatz_residue_profile(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def prep(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "start": pa.array(k % COLLATZ_MOD + 1, type=pa.int64()),
            "one": pa.array(np.ones(len(k), dtype=np.int64)),
        })

    starts = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
        ["start"], [("count", None, "cnt")],
    ).to_pandas()["start"].to_numpy().astype(np.int64)  # bounded residues
    starts = np.sort(starts)
    cur = starts.copy()
    steps = np.zeros(len(cur), dtype=np.int64)
    peak = cur.copy()
    active = cur != 1
    while active.any():
        odd = active & (cur % 2 == 1)
        even = active & ~odd
        cur[odd] = 3 * cur[odd] + 1
        cur[even] //= 2
        steps[active] += 1
        peak = np.maximum(peak, cur)
        active = cur != 1
    return ray.data.from_arrow(pa.table({
        "start": pa.array(starts, type=pa.int64()),
        "n_steps": pa.array(steps, type=pa.int64()),
        "max_val": pa.array(peak, type=pa.int64()),
    }))


SQL_COLLATZ_RESIDUE_PROFILE = f"""
WITH RECURSIVE starts AS MATERIALIZED (
  SELECT DISTINCT o_orderkey % {COLLATZ_MOD} + 1 AS s FROM orders
), walk AS (
  SELECT s, s AS cur, 0 AS step FROM starts
  UNION ALL
  SELECT s,
         CASE WHEN cur % 2 = 1 THEN 3 * cur + 1 ELSE cur // 2 END,
         step + 1
  FROM walk WHERE cur <> 1
)
SELECT CAST(s AS BIGINT) AS start,
       CAST(MAX(step) AS BIGINT) AS n_steps,
       CAST(MAX(cur) AS BIGINT) AS max_val
FROM walk GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext198():
    return {
        "continued_fraction_coeffs": q_continued_fraction_coeffs,
        "collatz_residue_profile": q_collatz_residue_profile,
    }


def build_oracles_ext198():
    return {
        "continued_fraction_coeffs": SQL_CONTINUED_FRACTION_COEFFS,
        "collatz_residue_profile": SQL_COLLATZ_RESIDUE_PROFILE,
    }
