"""Round-3 extension operators, batch 116: AMS F2 sketch + Haar
wavelet energy spectrum.

``ams_f2_sketch`` — the Alon-Matias-Szegedy second-frequency-moment
sketch over the corpus vocabulary: K=64 counters ``z_k = Σ_w
sign_k(w)·count(w)`` with four-wise-style ±1 signs derived from the
repo-wide SQL-replayable hash convention (``md5_number_lower(k ':' w)
% 2``).  Like the Count-Min sketch (ext40), every counter is a pure
monoid sum over (word, count) rows, so the WHOLE sketch — all 64
counters plus the mean-of-squares F2 estimate and the exact F2 — is
replayed value-exactly by the DuckDB oracle.  The pytest additionally
pins the AMS unbiasedness contract (estimate within a loose
variance-derived band of exact F2).

Scale shape: exact word counts ride the existing high-cardinality hash
exchange; sign partials collapse map-side to ≤ K rows per block; the
final aggregate is K rows — constant, the point of a sketch.  The
estimate fold is a K-row driver reduction.

``haar_hourly_energy`` — the multi-resolution burstiness spectrum:
unnormalized Haar wavelet decomposition of the global hourly
event-count series (hours since 2024-01-01, zero-filled and padded to
N=1024).  Detail coefficients at every level are integer differences
of integer sums, so per-level detail energies ``Σ d²`` are EXACT
int64s; the oracle replays all ``log2(N)=10`` levels with ten chained
(non-recursive) halving CTEs.  Parseval closes the books for the
unnormalized transform: ``Σ_L energy_L · N/2^L + (Σ h)² == N · Σ h²``
— pinned in pytest as an internal invariant.  Distributed part: the hourly histogram via map-side
combine (bounded ≤ N rows); the transform folds on the driver over
that bounded vector.

Reference anchors: sketch/aggregation surface (SURVEY.md §2.3/§2.4);
sibling of ext40 (Count-Min), ext79 (KMV), ext69 (CUSUM).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

AMS_K = 64
HAAR_N = 1024  # power of two >= 720 hours of January 2024 events
_HOUR_US = 3_600_000_000
_ORIGIN_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in microseconds


# --------------------------------------------------------------------------
# ams_f2_sketch
# --------------------------------------------------------------------------


def _ams_signs(words: list[str]) -> np.ndarray:
    """(len(words), AMS_K) ±1 signs via md5_number_lower(k ':' word) % 2."""
    out = np.empty((len(words), AMS_K), dtype=np.int64)
    for i, w in enumerate(words):
        for k in range(AMS_K):
            m = int.from_bytes(
                hashlib.md5(f"{k}:{w}".encode()).digest()[8:], "little"
            )
            out[i, k] = 1 - 2 * (m % 2)
    return out


def q_ams_f2_sketch(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries_ext40 import _word_counts

    import ray
    wc = _word_counts(sf_dir).materialize()  # vocabulary-sized, 2 consumers

    # sketch partials: (k, z) rows, collapsing map-side to <= AMS_K per block
    def partial(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        if not words:
            return pa.table({
                "k": pa.array([], type=pa.int64()),
                "z": pa.array([], type=pa.int64()),
            })
        c = batch.column("cnt").to_numpy().astype(np.int64)
        signs = _ams_signs(words)  # (n, K)
        z = signs.T @ c  # (K,)
        return pa.table({
            "k": pa.array(np.arange(AMS_K), type=pa.int64()),
            "z": pa.array(z, type=pa.int64()),
        })

    sk = grouped_aggregate(
        wc.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], [("sum", "z", "z")],
    ).to_pandas()  # bounded: AMS_K rows — the sketch itself

    # exact F2 = Σ count² — a constant-size per-block partial
    def f2_partial(batch: pa.Table) -> pa.Table:
        c = batch.column("cnt").to_numpy().astype(np.int64)
        return pa.table({"f2": pa.array([int(np.dot(c, c))], type=pa.int64())})

    f2 = int(
        wc.map_batches(f2_partial, batch_format="pyarrow",
                       zero_copy_batch=True)
        .to_pandas()["f2"].sum()  # bounded: one row per block
    )

    sk = sk.sort_values("k").reset_index(drop=True)
    z = sk["z"].to_numpy().astype(np.int64)
    # mean of squares: an exact rational with denominator AMS_K; AMS_K
    # divides nothing in general so publish numerator (exact int) + float
    est_num = int(np.dot(z, z))
    t = pa.table({
        "k": pa.array(sk["k"].to_numpy(), type=pa.int64()),
        "z": pa.array(z, type=pa.int64()),
        "f2_exact": pa.array([f2] * AMS_K, type=pa.int64()),
        "f2_est_x_k": pa.array([est_num] * AMS_K, type=pa.int64()),
    })
    return ray.data.from_arrow(t)


def _sql_ams_f2_sketch() -> str:
    return f"""
        WITH toks AS (
          SELECT unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                    w -> w <> '')) AS tok
          FROM documents
        ), cnt AS (
          SELECT tok, CAST(COUNT(*) AS BIGINT) AS c FROM toks GROUP BY tok
        ), ks AS (
          SELECT unnest(range({AMS_K})) AS k
        ), sketch AS (
          SELECT k,
                 CAST(SUM((1 - 2 * CAST(md5_number_lower(
                     CAST(k AS VARCHAR) || ':' || tok) % 2 AS BIGINT)) * c)
                     AS BIGINT) AS z
          FROM cnt, ks GROUP BY k
        ), f2 AS (
          SELECT CAST(SUM(c * c) AS BIGINT) AS f2_exact FROM cnt
        ), est AS (
          SELECT CAST(SUM(z * z) AS BIGINT) AS f2_est_x_k FROM sketch
        )
        SELECT CAST(k AS BIGINT) AS k, z, f2_exact, f2_est_x_k
        FROM sketch, f2, est
    """


# --------------------------------------------------------------------------
# haar_hourly_energy
# --------------------------------------------------------------------------


def _hourly_counts(sf_dir: str) -> np.ndarray:
    """Zero-filled length-HAAR_N int64 vector of global hourly counts."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        idx = (us - _ORIGIN_US) // _HOUR_US
        t = pa.table({"idx": pa.array(idx, type=pa.int64())})
        out = t.group_by(["idx"]).aggregate([("idx", "count")])
        return pa.table({
            "idx": out.column("idx"),
            "c": pc.cast(out.column("idx_count"), pa.int64()),
        })

    hist = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["idx"], [("sum", "c", "c")],
    ).to_pandas()  # bounded: <= HAAR_N rows
    vec = np.zeros(HAAR_N, dtype=np.int64)
    idx = hist["idx"].to_numpy()
    if len(idx) and (idx.min() < 0 or idx.max() >= HAAR_N):
        raise ValueError("hour index outside the Haar window")
    vec[idx] = hist["c"].to_numpy()
    return vec


def q_haar_hourly_energy(sf_dir: str):
    import ray
    vec = _hourly_counts(sf_dir)
    levels, energies, ncoefs = [], [], []
    cur = vec
    level = 1
    while len(cur) > 1:
        a = cur[0::2]
        b = cur[1::2]
        d = a - b
        levels.append(level)
        energies.append(int(np.dot(d, d)))
        ncoefs.append(len(d))
        cur = a + b
        level += 1
    return ray.data.from_arrow(pa.table({
        "level": pa.array(levels, type=pa.int64()),
        "energy": pa.array(energies, type=pa.int64()),
        "n_coeffs": pa.array(ncoefs, type=pa.int64()),
    }))


def _sql_haar_hourly_energy() -> str:
    hour_expr = f"(epoch_us(ts) - {_ORIGIN_US}) // {_HOUR_US}"
    ctes = [f"""
        hrs AS (
          SELECT CAST(unnest(range({HAAR_N})) AS BIGINT) AS idx
        ), raw AS (
          SELECT {hour_expr} AS idx, CAST(COUNT(*) AS BIGINT) AS c
          FROM events GROUP BY 1
        ), l0 AS (
          SELECT h.idx, COALESCE(r.c, 0) AS val
          FROM hrs h LEFT JOIN raw r ON r.idx = h.idx
        )"""]
    n = HAAR_N
    selects = []
    prev = "l0"
    level = 1
    while n > 1:
        cur = f"l{level}"
        ctes.append(f"""
        {cur} AS (
          SELECT idx // 2 AS idx,
                 CAST(SUM(val) AS BIGINT) AS val,
                 CAST(SUM(CASE WHEN idx % 2 = 0 THEN val ELSE -val END)
                     AS BIGINT) AS d
          FROM {prev} GROUP BY idx // 2
        )""")
        selects.append(
            f"SELECT CAST({level} AS BIGINT) AS level,"
            f" CAST(SUM(d * d) AS BIGINT) AS energy,"
            f" CAST(COUNT(*) AS BIGINT) AS n_coeffs FROM {cur}"
        )
        prev = cur
        n //= 2
        level += 1
    return ("WITH " + ",".join(ctes) + "\n"
            + "\nUNION ALL\n".join(selects))


def build_queries_ext116() -> dict:
    return {
        "ams_f2_sketch": q_ams_f2_sketch,
        "haar_hourly_energy": q_haar_hourly_energy,
    }


def build_oracles_ext116() -> dict:
    return {
        "ams_f2_sketch": _sql_ams_f2_sketch(),
        "haar_hourly_energy": _sql_haar_hourly_energy(),
    }
