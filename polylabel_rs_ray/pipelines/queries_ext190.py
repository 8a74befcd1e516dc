"""Round-3 extension operators, batch 190: tile 3-NN distance profile +
smallest-prime-factor histogram.

``tile_knn3_profile`` — the k-distance diagnostic that calibrates
density clustering (the DBSCAN eps elbow, companion to
``dbscan_tile_clusters``): for every occupied res-5 cell, the
Chebyshev distance to its 3rd-nearest OTHER occupied cell (cells in
sparser regions score higher).  Engine: the bounded pairwise distance
matrix with a per-row partition select.  Oracle: a pair join ranked
by (distance, neighbor coords) per cell with the rank-3 pick — the
deterministic coordinate tiebreak matters only for WHICH neighbor is
third, not for the emitted distance, so the contract is
tie-ambiguity-free by construction.

``orderkey_spf_histogram`` — arithmetic data profiling: the smallest
prime factor of every shifted order key (k + 2, so the stream starts
at 2) bucketed over the probe primes < 100, with 0 for "rough"
numbers whose factors all exceed 97.  The engine runs a real sieve
of Eratosthenes over the bounded key domain; the oracle probes
divisibility with a MIN-over-range pick restricted to the prime
probe set.  The histogram pins classic density identities (half the
keys are even; the rough fraction matches Mertens-style expectations
loosely) in pytest.

Reference anchors: spatial-clustering + profiling families (SURVEY.md
§2.3/§2.4); siblings: dbscan_tile_clusters (the consumer of this
diagnostic), nn_distance_histogram (pointwise NN geometry),
benford_audit (digit/number-theoretic profiling).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

KNN_RES = 5
KNN_K = 3
SPF_PROBE_MAX = 100  # probe primes < 100; larger factors -> bucket 0


# --------------------------------------------------------------------------
# tile_knn3_profile
# --------------------------------------------------------------------------


def q_tile_knn3_profile(sf_dir: str):
    from .queries_ext159 import _lattice_res

    import ray
    lat = _lattice_res(sf_dir, KNN_RES)
    ox, oy = np.nonzero(lat > 0)
    ox = ox.astype(np.int64)
    oy = oy.astype(np.int64)
    n = len(ox)
    d = np.maximum(np.abs(ox[:, None] - ox[None, :]),
                   np.abs(oy[:, None] - oy[None, :]))
    np.fill_diagonal(d, np.int64(1) << 40)
    kth = np.partition(d, KNN_K - 1, axis=1)[:, KNN_K - 1]
    return ray.data.from_arrow(pa.table({
        "ix": pa.array(ox, type=pa.int64()),
        "iy": pa.array(oy, type=pa.int64()),
        "d3_cheb": pa.array(kth, type=pa.int64()),
    }))


def _sql_tile_knn3_profile() -> str:
    from .queries_ext156 import _sql_grid_cte

    return _sql_grid_cte(KNN_RES) + f"""
, pairs AS (
  SELECT a.ix, a.iy,
         GREATEST(abs(a.ix - b.ix), abs(a.iy - b.iy)) AS d,
         ROW_NUMBER() OVER (
           PARTITION BY a.ix, a.iy
           ORDER BY GREATEST(abs(a.ix - b.ix), abs(a.iy - b.iy)),
                    b.ix, b.iy) AS rn
  FROM occ a JOIN occ b ON NOT (a.ix = b.ix AND a.iy = b.iy)
)
SELECT ix, iy, CAST(d AS BIGINT) AS d3_cheb
FROM pairs WHERE rn = {KNN_K}
"""


# --------------------------------------------------------------------------
# orderkey_spf_histogram
# --------------------------------------------------------------------------


def q_orderkey_spf_histogram(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    # sieve of Eratosthenes once for the probe primes
    limit = SPF_PROBE_MAX
    is_p = np.ones(limit, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    primes = np.flatnonzero(is_p).astype(np.int64)

    def spf(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy().astype(np.int64) + 2
        out = np.zeros(len(k), dtype=np.int64)
        rem = np.ones(len(k), dtype=bool)
        for p in primes:  # real sieve-probe, smallest first
            hit = rem & (k % p == 0)
            out[hit] = p
            rem &= ~hit
        t = pa.table({
            "spf": pa.array(out, type=pa.int64()),
            "one": pa.array(np.ones(len(k), dtype=np.int64)),
        })
        g = t.group_by("spf").aggregate([("one", "sum")])
        return pa.table({
            "spf": g.column("spf"),
            "n_keys": pc.cast(g.column("one_sum"), pa.int64()),
        })

    return grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).map_batches(
            spf, batch_format="pyarrow", zero_copy_batch=True),
        ["spf"], [("sum", "n_keys", "n_keys")],
    )


def _sql_orderkey_spf_histogram() -> str:
    # probe primes below SPF_PROBE_MAX, literal list
    limit = SPF_PROBE_MAX
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            for m in range(p * p, limit, p):
                sieve[m] = False
    primes = [p for p in range(limit) if sieve[p]]
    plist = ", ".join(f"({p})" for p in primes)
    return f"""
WITH keys AS MATERIALIZED (
  SELECT o_orderkey + 2 AS k FROM orders
), probes AS (SELECT p FROM (VALUES {plist}) t(p)
), spf AS (
  SELECT COALESCE((SELECT MIN(pr.p) FROM probes pr
                   WHERE ky.k % pr.p = 0), 0) AS spf
  FROM keys ky
)
SELECT CAST(spf AS BIGINT) AS spf,
       CAST(COUNT(*) AS BIGINT) AS n_keys
FROM spf GROUP BY 1
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext190():
    return {
        "tile_knn3_profile": q_tile_knn3_profile,
        "orderkey_spf_histogram": q_orderkey_spf_histogram,
    }


def build_oracles_ext190():
    return {
        "tile_knn3_profile": _sql_tile_knn3_profile(),
        "orderkey_spf_histogram": _sql_orderkey_spf_histogram(),
    }
