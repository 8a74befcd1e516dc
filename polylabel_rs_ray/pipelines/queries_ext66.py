"""Round-3 extension operators, batch 66: geometry validity audit and
collocation detection.

``ring_audit`` — the data-quality pass a geometry ingest runs before
anything else: per polygon, exterior-ring orientation (+1 CCW / -1 CW
/ 0 degenerate by shoelace sign), convexity flag (all nonzero edge
cross products share one sign), zero-length-edge count, and the sum
of squared edge lengths (dyadic coordinates -> every term exact in
float64).  Per-fixture constants replay in SQL; the constants come
from an independent sequential twin.

``pmi_bigrams`` — collocation detection (pointwise mutual information
over word bigrams), the association-mining step of phrase/tokenizer
pipelines.  PMI = log(c_ab * N^2 / (B * c_a * c_b)) is emitted as the
EXACT integer pair (pmi_num, pmi_den) — logs of rationals don't
round-trip bit-stable across libm implementations, the rational does.
Unigram counts are vocabulary-bounded (broadcast once); bigram counts
flow through the map-side-combined string-key aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PMI_MIN_COUNT = 5


# --------------------------------------------------------------------------
# ring_audit
# --------------------------------------------------------------------------


def _ring_audit_one(ext: np.ndarray) -> tuple[int, bool, int, float]:
    """Vectorized single-ring audit (engine side)."""
    poly = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    x, y = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    s = 0.0
    for v in x * y1 - x1 * y:  # sequential fold — twin-identical order
        s += float(v)
    orient = 0 if s == 0.0 else (1 if s > 0.0 else -1)
    ex, ey = x1 - x, y1 - y
    n_zero = int(((ex == 0.0) & (ey == 0.0)).sum())
    # convexity: consecutive edge cross products all share one sign
    ex2, ey2 = np.roll(ex, -1), np.roll(ey, -1)
    crosses = ex * ey2 - ey * ex2
    nz = crosses[crosses != 0.0]
    convex = bool(len(nz) == 0 or (nz > 0).all() or (nz < 0).all())
    lensq = 0.0
    for v in ex * ex + ey * ey:  # sequential fold
        lensq += float(v)
    return orient, convex, n_zero, lensq


def q_ring_audit(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        orient = np.empty(len(polys), dtype=np.int64)
        convex = np.empty(len(polys), dtype=bool)
        nzero = np.empty(len(polys), dtype=np.int64)
        lensq = np.empty(len(polys), dtype=np.float64)
        for i, rings in enumerate(polys):
            o, c, z, ls = _ring_audit_one(_norm_exterior(rings))
            orient[i], convex[i], nzero[i], lensq[i] = o, c, z, ls
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "orientation": pa.array(orient, type=pa.int64()),
            "is_convex": pa.array(convex, type=pa.bool_()),
            "n_zero_edges": pa.array(nzero, type=pa.int64()),
            "sum_edge_len_sq": pa.array(lensq, type=pa.float64()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_ring_audit(ext) -> tuple[int, bool, int, float]:
    """Oracle twin: sequential scalar audit, no shared code with the engine
    stage."""
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    n = len(pts)
    s = 0.0
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    orient = 0 if s == 0.0 else (1 if s > 0.0 else -1)
    n_zero = 0
    lensq = 0.0
    signs = set()
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cx, cy = pts[(i + 2) % n]
        e1x, e1y = bx - ax, by - ay
        e2x, e2y = cx - bx, cy - by
        if e1x == 0.0 and e1y == 0.0:
            n_zero += 1
        lensq += e1x * e1x + e1y * e1y
        cr = e1x * e2y - e1y * e2x
        if cr != 0.0:
            signs.add(cr > 0.0)
    convex = len(signs) <= 1
    return orient, convex, n_zero, lensq


def _sql_ring_audit() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    co, cc, cz, cl = [], [], [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        o, c, z, ls = _twin_ring_audit(ext)
        co.append(f"WHEN {f} THEN {o}")
        cc.append(f"WHEN {f} THEN {str(c).upper()}")
        cz.append(f"WHEN {f} THEN {z}")
        cl.append(f"WHEN {f} THEN {ls!r}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CAST(CASE doc_id % {n} {' '.join(co)} END AS BIGINT)
                 AS orientation,
               CASE doc_id % {n} {' '.join(cc)} END AS is_convex,
               CAST(CASE doc_id % {n} {' '.join(cz)} END AS BIGINT)
                 AS n_zero_edges,
               CASE doc_id % {n} {' '.join(cl)} END AS sum_edge_len_sq
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


# --------------------------------------------------------------------------
# pmi_bigrams
# --------------------------------------------------------------------------


def q_pmi_bigrams(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    # pass 1: unigram counts — vocabulary-bounded, broadcast back
    def unigram_counts(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        for t in batch.column("text").to_pylist():
            words.extend((t or "").lower().split())
        tbl = pa.table({"word": pa.array(words, type=pa.string())})
        out = tbl.group_by(["word"]).aggregate([("word", "count")])
        return pa.table({
            "word": out.column("word"),
            "n": pc.cast(out.column("word_count"), pa.int64()),
        })

    uni = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        .map_batches(unigram_counts, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["word"], [("sum", "n", "n")],
    ).to_pandas()  # bounded: one row per vocabulary word
    c_of = dict(zip(uni["word"], uni["n"].astype(int)))
    n_tokens = int(uni["n"].sum())

    # pass 2: bigram counts (string-key map-side combine), then the exact
    # rational PMI against the broadcast unigram table
    def bigram_counts(batch: pa.Table) -> pa.Table:
        grams: list[str] = []
        for t in batch.column("text").to_pylist():
            toks = (t or "").lower().split()
            grams.extend(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        tbl = pa.table({"bigram": pa.array(grams, type=pa.string())})
        out = tbl.group_by(["bigram"]).aggregate([("bigram", "count")])
        return pa.table({
            "bigram": out.column("bigram"),
            "n": pc.cast(out.column("bigram_count"), pa.int64()),
        })

    bi = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        .map_batches(bigram_counts, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["bigram"], [("sum", "n", "n")],
    )

    # total bigram count folds from the bigram table itself (tiny second
    # aggregate over vocab^2-bounded rows)
    total_bi = grouped_aggregate(
        bi.map_batches(
            lambda b: pa.table({
                "k": pa.array([0], type=pa.int64()),
                "t": pa.array([int(b.column("n").to_numpy().sum())],
                              type=pa.int64()),
            }),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        ["k"], [("sum", "t", "t")],
    ).to_pandas()
    n_bigrams = int(total_bi.iloc[0]["t"])

    def score(batch: pa.Table) -> pa.Table:
        grams = batch.column("bigram").to_pylist()
        c_ab = batch.column("n").to_numpy().astype(np.int64)
        keep = c_ab >= PMI_MIN_COUNT
        grams = [g for g, k in zip(grams, keep) if k]
        c_ab = c_ab[keep]
        c_a = np.array([c_of[g.split(" ", 1)[0]] for g in grams],
                       dtype=np.int64)
        c_b = np.array([c_of[g.split(" ", 1)[1]] for g in grams],
                       dtype=np.int64)
        # exact rational PMI: log(num/den) left to the consumer
        num = c_ab * n_tokens * n_tokens
        den = n_bigrams * c_a * c_b
        return pa.table({
            "bigram": pa.array(grams, type=pa.string()),
            "c_ab": pa.array(c_ab, type=pa.int64()),
            "c_a": pa.array(c_a, type=pa.int64()),
            "c_b": pa.array(c_b, type=pa.int64()),
            "pmi_num": pa.array(num, type=pa.int64()),
            "pmi_den": pa.array(den, type=pa.int64()),
        })

    return bi.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


SQL_PMI_BIGRAMS = rf"""
WITH toks AS (
    SELECT regexp_extract_all(lower(text), '\S+') AS t FROM documents
),
uni AS (
    SELECT w AS word, CAST(COUNT(*) AS BIGINT) AS n
    FROM toks, LATERAL (SELECT unnest(t) AS w) GROUP BY w
),
g AS (SELECT CAST(SUM(n) AS BIGINT) AS n_tokens FROM uni),
bi AS (
    SELECT t[i] AS a, t[i + 1] AS b, t[i] || ' ' || t[i + 1] AS bigram
    FROM toks, LATERAL (SELECT unnest(generate_series(1, len(t) - 1)) AS i)
),
bc AS (
    SELECT bigram, ANY_VALUE(a) AS a, ANY_VALUE(b) AS b,
           CAST(COUNT(*) AS BIGINT) AS c_ab
    FROM bi GROUP BY bigram
),
gb AS (SELECT CAST(SUM(c_ab) AS BIGINT) AS n_bigrams FROM bc)
SELECT bc.bigram, bc.c_ab, ua.n AS c_a, ub.n AS c_b,
       CAST(bc.c_ab * g.n_tokens * g.n_tokens AS BIGINT) AS pmi_num,
       CAST(gb.n_bigrams * ua.n * ub.n AS BIGINT) AS pmi_den
FROM bc
JOIN uni ua ON bc.a = ua.word
JOIN uni ub ON bc.b = ub.word, g, gb
WHERE bc.c_ab >= {PMI_MIN_COUNT}
"""


def build_queries_ext66() -> dict:
    return {
        "ring_audit": q_ring_audit,
        "pmi_bigrams": q_pmi_bigrams,
    }


def build_oracles_ext66() -> dict:
    return {
        "ring_audit": _sql_ring_audit(),
        "pmi_bigrams": SQL_PMI_BIGRAMS,
    }
