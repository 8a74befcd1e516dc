"""Round-3 extension operators, batch 111: label dispersion + source
overlap.

``label_dispersion`` — mean pairwise Manhattan distance between label
points per fixture class, EXACT with no pairwise pass and no global
sort: Manhattan decomposes per axis, each axis's label values live on
a bounded lattice (dyadic fixture constant + integer offset mod 1000,
sources/docs.py:66), so a (fixture, value) HISTOGRAM determines the
answer via the sorted-prefix identity ``Σ_{i<j}|v_i−v_j| =
Σ_v f_v·(v·C_<v − S_<v)`` folded over ≤1000 bounded rows per fixture.
Offsets recover exactly as ``value − min(value)`` (difference of two
exact doubles with integer true difference is exact).  The sentinel
fixture collapses to one point and reports zero dispersion — pinned.

``source_overlap_matrix`` — cross-source contamination matrix: for
every source pair, how many distinct word 3-grams they share.  The
text-level sibling of ``audience_overlap_matrix`` (users/event-types)
and the pairwise extension of ``contamination_check``: distinct
(shingle, source) pairs co-partition by shingle hash, each shingle
partition emits its within-shingle source-pair combinations (sources
are BOUNDED — 20 — so per-shingle fan-out is ≤ C(20,2)), and a final
bounded pair aggregate finishes.  Two exchanges, no driver corpus.

Reference anchors: tiling metrology + LLM-corpus provenance surface
(SURVEY.md §2.3/§2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import n_partitions


def _axis_fold(hist) -> dict[int, tuple[int, int]]:
    """hist: DataFrame(fixture, v_float, f) -> {fixture: (n, Σ pairwise
    |dv|)} folded in exact Python ints over the bounded histogram."""
    out: dict[int, tuple[int, int]] = {}
    for fx, sub in hist.groupby("fixture"):
        sub = sub.sort_values("v")
        vmin = float(sub["v"].iloc[0])
        vals = [int(x - vmin) for x in sub["v"]]  # exact (see docstring)
        freqs = [int(x) for x in sub["f"]]
        n = cum_f = cum_s = 0
        total = 0
        for v, f in zip(vals, freqs):
            total += f * (v * cum_f - cum_s)
            cum_f += f
            cum_s += v * f
            n += f
        out[int(fx)] = (n, total)
    return out


def q_label_dispersion(sf_dir: str):
    from ..sources import docs as docs_mod
    from .agg import grouped_aggregate

    from .queries import q_label_dyadic

    ds = q_label_dyadic(sf_dir)

    def hist_partial(batch: pa.Table) -> pa.Table:
        fx = batch.column("fixture_idx").to_numpy().astype(np.int64)
        parts = []
        for axis in ("label_x", "label_y"):
            v = batch.column(axis).to_numpy()
            g = pa.table({
                "fixture": pa.array(fx, type=pa.int64()),
                "axis": pa.array(
                    np.full(len(fx), 0 if axis == "label_x" else 1,
                            np.int64)),
                "v": pa.array(v, type=pa.float64()),
                "one": pa.array(np.ones(len(fx), np.int64)),
            }).group_by(["fixture", "axis", "v"]).aggregate([("one", "sum")])
            parts.append(pa.table({
                "fixture": g.column("fixture"), "axis": g.column("axis"),
                "v": g.column("v"), "f": g.column("one_sum"),
            }))
        return pa.concat_tables(parts)

    hist = grouped_aggregate(
        ds.map_batches(hist_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["fixture", "axis", "v"], [("sum", "f", "f")],
    ).to_pandas()  # bounded: fixtures x 2 axes x <=1000 lattice values

    xs = _axis_fold(hist[hist["axis"] == 0][["fixture", "v", "f"]])
    ys = _axis_fold(hist[hist["axis"] == 1][["fixture", "v", "f"]])
    fixtures = sorted(xs)
    rows = {"fixture_idx": [], "n_points": [], "sum_manhattan": [],
            "mean_manhattan": []}
    for fx in fixtures:
        n, sx = xs[fx]
        _, sy = ys[fx]
        total = sx + sy
        pairs = n * (n - 1) // 2
        rows["fixture_idx"].append(fx)
        rows["n_points"].append(n)
        rows["sum_manhattan"].append(total)
        rows["mean_manhattan"].append(
            float(total) / float(pairs) if pairs else 0.0)
    return pa.table({
        "fixture_idx": pa.array(rows["fixture_idx"], type=pa.int64()),
        "n_points": pa.array(rows["n_points"], type=pa.int64()),
        "sum_manhattan": pa.array(rows["sum_manhattan"], type=pa.int64()),
        "mean_manhattan": pa.array(rows["mean_manhattan"],
                                   type=pa.float64()),
    })


def _sql_label_dispersion() -> str:
    from ..sources import docs as docs_mod

    from .queries import _sql_dyadic_labels_cte

    n_fix = docs_mod.N_FIXTURES

    def axis(col: str, alias: str) -> str:
        return f"""
h_{alias} AS (
  SELECT doc_num % {n_fix} AS fixture, {col} AS v,
         CAST(COUNT(*) AS BIGINT) AS f
  FROM labels GROUP BY 1, 2
),
o_{alias} AS (
  SELECT fixture,
         CAST(v - MIN(v) OVER (PARTITION BY fixture) AS BIGINT) AS v, f
  FROM h_{alias}
),
w_{alias} AS (
  SELECT fixture, v, f,
         SUM(f) OVER (PARTITION BY fixture ORDER BY v) - f AS cum_f,
         SUM(v * f) OVER (PARTITION BY fixture ORDER BY v) - v * f AS cum_s
  FROM o_{alias}
),
s_{alias} AS (
  SELECT fixture, SUM(f) AS n,
         SUM(f * (v * cum_f - cum_s)) AS total
  FROM w_{alias} GROUP BY fixture
)"""

    return f"""
WITH labels AS ({_sql_dyadic_labels_cte()}),{axis("label_x", "x")},{axis("label_y", "y")}
SELECT s_x.fixture AS fixture_idx,
       CAST(s_x.n AS BIGINT) AS n_points,
       CAST(s_x.total + s_y.total AS BIGINT) AS sum_manhattan,
       CASE WHEN s_x.n > 1 THEN
         CAST(s_x.total + s_y.total AS DOUBLE)
           / CAST(s_x.n * (s_x.n - 1) // 2 AS DOUBLE)
       ELSE 0.0 END AS mean_manhattan
FROM s_x JOIN s_y USING (fixture)
ORDER BY fixture_idx
"""


def q_source_overlap_matrix(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    from .queries_ext5 import _word_lists

    import ray
    P = n_partitions(n_parts)

    def shingle_pairs(batch: pa.Table) -> pa.Table:
        flat, counts, doc_idx = _word_lists(batch)
        src = batch.column("source").to_numpy(zero_copy_only=False)
        n = len(flat)
        empty = pa.table({
            "part": pa.array([], type=pa.int64()),
            "s": pa.array([], type=pa.string()),
            "source": pa.array([], type=pa.string()),
        })
        if n < 3:
            return empty
        same = doc_idx[:-2] == doc_idx[2:]
        i = np.flatnonzero(same)
        sh = pc.binary_join_element_wise(
            flat.take(pa.array(i)), flat.take(pa.array(i + 1)),
            flat.take(pa.array(i + 2)), " ")
        g = pa.table({
            "s": sh,
            "source": pa.array(src[doc_idx[i]], type=pa.string()),
        }).group_by(["s", "source"]).aggregate([])
        sv = g.column("s")
        import polars as pl

        h = pl.from_arrow(sv).hash(seed=0).to_numpy().astype(np.uint64)
        return pa.table({
            "part": pa.array((h % np.uint64(P)).astype(np.int64),
                             type=pa.int64()),
            "s": sv,
            "source": g.column("source"),
        })

    def pair_partials(group: pa.Table) -> pa.Table:
        g = group.group_by(["s", "source"]).aggregate([])
        sv = g.column("s").combine_chunks()
        codes = sv.dictionary_encode().indices.to_numpy().astype(np.int64)
        src = np.asarray(g.column("source").to_pylist())
        order = np.lexsort((src, codes))
        codes, src = codes[order], src[order]
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        sizes = np.diff(np.r_[starts, len(codes)])
        out_a, out_b = [], []
        for k in np.unique(sizes):
            if k < 2:
                continue
            sel = starts[sizes == k]
            mat = src[(sel[:, None] + np.arange(k)[None, :])]
            ii, jj = [np.array(x, dtype=np.int64) for x in zip(
                *[(i, j) for i in range(k - 1) for j in range(i + 1, k)])]
            out_a.append(mat[:, ii].ravel())
            out_b.append(mat[:, jj].ravel())
        if not out_a:
            return pa.table({
                "source_a": pa.array([], type=pa.string()),
                "source_b": pa.array([], type=pa.string()),
                "shared": pa.array([], type=pa.int64()),
            })
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        g2 = pa.table({
            "source_a": pa.array(a, type=pa.string()),
            "source_b": pa.array(b, type=pa.string()),
            "one": pa.array(np.ones(len(a), np.int64)),
        }).group_by(["source_a", "source_b"]).aggregate([("one", "sum")])
        return pa.table({
            "source_a": g2.column("source_a"),
            "source_b": g2.column("source_b"),
            "shared": g2.column("one_sum"),
        })

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])
    return grouped_aggregate(
        group_map(
            ds.map_batches(shingle_pairs, batch_format="pyarrow", zero_copy_batch=True),
            "part", lambda g: pair_partials(g.drop_columns(["part"])),
        ),
        ["source_a", "source_b"], [("sum", "shared", "shared")],
    ).sort(["source_a", "source_b"])


SQL_SOURCE_OVERLAP_MATRIX = """
WITH w AS (SELECT source, string_split(text, ' ') AS t FROM documents),
sh AS (
  SELECT DISTINCT source, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s
  FROM w, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i)
  WHERE len(t) >= 3
)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(COUNT(*) AS BIGINT) AS shared
FROM sh a JOIN sh b ON a.s = b.s AND a.source < b.source
GROUP BY 1, 2
ORDER BY 1, 2
"""


def build_queries_ext111() -> dict:
    return {
        "label_dispersion": q_label_dispersion,
        "source_overlap_matrix": q_source_overlap_matrix,
    }


def build_oracles_ext111() -> dict:
    return {
        "label_dispersion": _sql_label_dispersion(),
        "source_overlap_matrix": SQL_SOURCE_OVERLAP_MATRIX,
    }
