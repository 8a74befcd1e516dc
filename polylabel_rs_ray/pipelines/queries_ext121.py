"""Round-3 extension operators, batch 121: even-odd PIP probe-grid audit
+ Elias gamma/delta code-length spectrum.

``pip_grid_audit`` — per dyadic document, the even-odd (ray-casting)
point-in-polygon classification of 8 fixed probe points spread over
the normalized exterior bbox, emitted as a bitmask + popcount.  Probe
k sits at bbox fractions ((2k+1)/16, ((5k+3) mod 16)/16); scaling the
normalized integer ring by 16 makes probes and vertices integers, so
the classic pnpoly crossing rule

    cross iff (y0 > Y) != (y1 > Y)
          and sign-adjusted (Y-y0)(x1-x0) - (X-x0)(y1-y0) puts the
          intersection strictly right of X

runs in pure int64 arithmetic — no division, no floats, bit-identical
by construction on any engine that implements the same comparisons.
The oracle COMPUTES the rule inside DuckDB over the embedded fixture
vertex table (cross-join with the probe VALUES, integer CASE per
edge) — an independent engine running the same integer spec, the
ext119 discipline.  Zero-area degenerates classify all probes outside.

``elias_code_spectrum`` — the storage-planning spectrum for Elias
gamma/delta coding of per-user event time gaps: with v = gap_us + 1
and blen = bit length of v, per blen bucket emit the delta count and
the exact total gamma bits (2·blen − 1 each) and Elias-delta bits
(blen − 1 + 2·bitlen(blen) − 1 each).  Per-user deltas via the
established hash-partition + per-partition lexsort (user, ts,
event_id) — no global sort; bit lengths via integer searchsorted over
the powers-of-two table (no float log anywhere).  Oracle: LEAD over a
per-user window, ``length(bin(v))`` as the bit length.

Reference anchors: encoding-cost family (SURVEY.md §2.4); siblings:
varint_size_estimate (same partitioned delta machinery),
for_encoding_cost / dod_encoding_cost (bit-width arithmetic),
picks_theorem_audit (integer parity PIP on lattice points).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources import docs as docs_mod
from .agg import hash_exchange
from .queries_ext import DYADIC_IDX, _dyadic_rings_ds
from .queries_ext119 import _sql_fixture_verts

N_PROBES = 8
PROBE_FX = [2 * k + 1 for k in range(N_PROBES)]         # × W / 16
PROBE_FY = [(5 * k + 3) % 16 for k in range(N_PROBES)]  # × H / 16


# --------------------------------------------------------------------------
# pip_grid_audit
# --------------------------------------------------------------------------


def _pip_mask(ext: np.ndarray) -> tuple[int, int]:
    """Even-odd mask of the 8 probes against one normalized exterior
    ring — all int64, the exact integer pnpoly rule."""
    r = ((ext - ext.min(axis=0)) * 16.0).astype(np.int64)  # exact: ints ×16
    w = int(r[:, 0].max())
    h = int(r[:, 1].max())
    x0, y0 = r[:-1, 0], r[:-1, 1]
    x1, y1 = r[1:, 0], r[1:, 1]
    mask = 0
    n_in = 0
    for k in range(N_PROBES):
        X = PROBE_FX[k] * w // 16
        Y = PROBE_FY[k] * h // 16
        straddle = (y0 > Y) != (y1 > Y)
        # intersection strictly right of X:  X < x0 + (Y-y0)(x1-x0)/(y1-y0)
        # cross-multiplied by (y1-y0), sign-adjusted — pure int64
        t = (Y - y0) * (x1 - x0) - (X - x0) * (y1 - y0)
        s = y1 - y0
        hit = straddle & (((s > 0) & (t > 0)) | ((s < 0) & (t < 0)))
        if int(hit.sum()) & 1:
            mask |= 1 << k
            n_in += 1
    return mask, n_in


def _pip_stage(batch: pa.Table) -> pa.Table:
    from ..stages.label import rings_to_numpy

    polys = rings_to_numpy(batch.column("rings"))
    doc = batch.column("doc_num").to_numpy()
    masks = np.empty(len(polys), dtype=np.int64)
    nin = np.empty(len(polys), dtype=np.int64)
    for i, rings in enumerate(polys):
        masks[i], nin[i] = _pip_mask(rings[0])
    return pa.table({
        "doc_num": pa.array(doc, type=pa.int64()),
        "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES, type=pa.int64()),
        "inside_mask": pa.array(masks, type=pa.int64()),
        "inside_n": pa.array(nin, type=pa.int64()),
    })


def q_pip_grid_audit(sf_dir: str):
    return _dyadic_rings_ds(sf_dir).map_batches(
        _pip_stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_pip_grid_audit() -> str:
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    probes = ",".join(f"({k},{PROBE_FX[k]},{PROBE_FY[k]})"
                      for k in range(N_PROBES))
    return f"""
        WITH verts AS ({_sql_fixture_verts(exterior_only=True)}),
        sverts AS (
            SELECT fix_idx, ring_idx, seq, x * 16 AS x, y * 16 AS y
            FROM verts
        ),
        dims AS (
            SELECT fix_idx, MAX(x) AS w, MAX(y) AS h
            FROM sverts GROUP BY fix_idx
        ),
        probes AS (SELECT * FROM (VALUES {probes}) p(k, fx, fy)),
        edges AS (
            SELECT fix_idx, x AS x0, y AS y0,
                   LEAD(x) OVER w AS x1, LEAD(y) OVER w AS y1
            FROM sverts
            WINDOW w AS (PARTITION BY fix_idx, ring_idx ORDER BY seq)
        ),
        hits AS (
            SELECT e.fix_idx, p.k,
                   SUM(CASE WHEN (e.y0 > p.fy * d.h // 16)
                                 <> (e.y1 > p.fy * d.h // 16)
                             AND (
                               CASE WHEN e.y1 - e.y0 > 0
                                    THEN (p.fy * d.h // 16 - e.y0)
                                           * (e.x1 - e.x0)
                                         - (p.fx * d.w // 16 - e.x0)
                                           * (e.y1 - e.y0) > 0
                                    ELSE (p.fy * d.h // 16 - e.y0)
                                           * (e.x1 - e.x0)
                                         - (p.fx * d.w // 16 - e.x0)
                                           * (e.y1 - e.y0) < 0
                               END)
                            THEN 1 ELSE 0 END) AS crossings
            FROM edges e
            JOIN dims d ON d.fix_idx = e.fix_idx
            CROSS JOIN probes p
            WHERE e.x1 IS NOT NULL
            GROUP BY e.fix_idx, p.k
        ),
        mask AS (
            SELECT fix_idx,
                   CAST(SUM((crossings % 2) * (1 << k)) AS BIGINT)
                       AS inside_mask,
                   CAST(SUM(crossings % 2) AS BIGINT) AS inside_n
            FROM hits GROUP BY fix_idx
        )
        SELECT d.doc_id AS doc_num,
               d.doc_id % {n} AS fixture_idx,
               m.inside_mask, m.inside_n
        FROM documents d
        JOIN mask m ON m.fix_idx = d.doc_id % {n}
        WHERE d.doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# elias_code_spectrum
# --------------------------------------------------------------------------

_POWS = (2 ** np.arange(63)).astype(np.int64)


def _bitlen(v: np.ndarray) -> np.ndarray:
    """Exact bit length of positive int64 values — integer searchsorted
    over the powers-of-two table, no float log."""
    return np.searchsorted(_POWS, v, side="right").astype(np.int64)


def q_elias_code_spectrum(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts_us").to_numpy().astype(np.int64)
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        same = np.empty(len(uid), dtype=bool)
        same[:-1] = uid[1:] == uid[:-1]
        same[-1] = False
        v = np.where(same, np.roll(ts, -1) - ts, 0)[same] + 1
        blen = _bitlen(v)
        lens, cnt = np.unique(blen, return_counts=True)
        cnt = cnt.astype(np.int64)
        gamma = (2 * lens - 1) * cnt
        delta = (lens - 1 + 2 * _bitlen(lens) - 1) * cnt
        return pa.table({
            "bitlen": pa.array(lens, type=pa.int64()),
            "n_deltas": pa.array(cnt, type=pa.int64()),
            "gamma_bits": pa.array(gamma, type=pa.int64()),
            "delta_bits": pa.array(delta, type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    return grouped_aggregate(
        hash_exchange(ds, "user_id", per_partition, n_parts),
        ["bitlen"],
        [("sum", "n_deltas", "n_deltas"), ("sum", "gamma_bits", "gamma_bits"),
         ("sum", "delta_bits", "delta_bits")],
    )


SQL_ELIAS_CODE_SPECTRUM = """
WITH gaps AS (
  SELECT epoch_us(LEAD(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id))
         - epoch_us(ts) + 1 AS v
  FROM events
), lens AS (
  SELECT LENGTH(BIN(v)) AS blen FROM gaps WHERE v IS NOT NULL
)
SELECT CAST(blen AS BIGINT) AS bitlen,
       CAST(COUNT(*) AS BIGINT) AS n_deltas,
       CAST(SUM(2 * blen - 1) AS BIGINT) AS gamma_bits,
       CAST(SUM(blen - 1 + 2 * LENGTH(BIN(blen)) - 1) AS BIGINT)
           AS delta_bits
FROM lens GROUP BY blen
"""


def build_queries_ext121() -> dict:
    return {
        "pip_grid_audit": q_pip_grid_audit,
        "elias_code_spectrum": q_elias_code_spectrum,
    }


def build_oracles_ext121() -> dict:
    return {
        "pip_grid_audit": _sql_pip_grid_audit(),
        "elias_code_spectrum": SQL_ELIAS_CODE_SPECTRUM,
    }
