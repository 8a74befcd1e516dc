"""Round-3 extension operators, batch 78: distributed run-length
encoding stats and edge-orientation spectra.

``returnflag_rle_stats`` — the storage-engineering question "how well
would this column RLE-compress in clustered order?": over lineitem in
(l_orderkey, l_linenumber) order, the exact number of runs of
l_returnflag, the longest run, and the row count.  Runs cross block
boundaries, so this is the segmented-scan shape: arithmetic range
partitions on orderkey keep the order contiguous, each partition
emits a constant-size summary (first/last value, prefix/suffix run
lengths, interior max, run count), and the driver folds P summaries
stitching boundary runs — no global sort, no row leaves its
partition.

``edge_orientation_spectrum`` — the orientation histogram of polygon
edges in 8 compass directions, computed WITHOUT trigonometry: sector
classification is pure sign comparison on (dx, dy) (dyadic-exact), so
engine, twin, and SQL agree exactly.  Per-fixture
constants; zero-length edges are skipped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map

RLE_PARTS = 32


# --------------------------------------------------------------------------
# returnflag_rle_stats
# --------------------------------------------------------------------------


def q_returnflag_rle_stats(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    import ray
    P = int(n_parts or RLE_PARTS)

    # arithmetic range partition on orderkey (contiguous in the clustered
    # order) — bounds from parquet ROW-GROUP STATISTICS, no data pass
    pf = pq.ParquetFile(f"{sf_dir}/lineitem.parquet")
    col_idx = pf.schema_arrow.get_field_index("l_orderkey")
    kmin, kmax = None, None
    for rg in range(pf.metadata.num_row_groups):
        st = pf.metadata.row_group(rg).column(col_idx).statistics
        kmin = st.min if kmin is None else min(kmin, st.min)
        kmax = st.max if kmax is None else max(kmax, st.max)
    kmin, kmax = int(kmin), int(kmax)
    span = max(kmax - kmin + 1, 1)

    def keyed(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy().astype(np.int64)
        part = np.minimum((k - kmin) * P // span, P - 1)
        return pa.table({
            "part": pa.array(part, type=pa.int64()),
            "k": pa.array(k, type=pa.int64()),
            "ln": pc.cast(batch.column("l_linenumber"), pa.int64()),
            "v": batch.column("l_returnflag"),
        })

    def summarize(group: pa.Table) -> pa.Table:
        part = int(group.column("part")[0].as_py())
        k = group.column("k").to_numpy().astype(np.int64)
        ln = group.column("ln").to_numpy().astype(np.int64)
        v = np.asarray(group.column("v").to_pylist(), dtype=object)
        # (l_orderkey, l_linenumber) is NOT unique in this schema, so the
        # value itself is the final tie-break — without it the run count
        # depends on physical read order (exposed by the multi-row-group
        # sf1 sweep; single-group files read deterministically and hid it)
        vcode = np.array([ord(x[0]) for x in v], dtype=np.int64)
        order = np.lexsort((vcode, ln, k))
        v = v[order]
        n = len(v)
        change = np.flatnonzero(v[1:] != v[:-1]) + 1
        bounds = np.concatenate([[0], change, [n]])
        run_lens = np.diff(bounds)
        return pa.table({
            "part": pa.array([part], type=pa.int64()),
            "n_rows": pa.array([n], type=pa.int64()),
            "n_runs": pa.array([len(run_lens)], type=pa.int64()),
            "first_val": pa.array([str(v[0])], type=pa.string()),
            "last_val": pa.array([str(v[-1])], type=pa.string()),
            "prefix_len": pa.array([int(run_lens[0])], type=pa.int64()),
            "suffix_len": pa.array([int(run_lens[-1])], type=pa.int64()),
            "max_run": pa.array([int(run_lens.max())], type=pa.int64()),
        })

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_linenumber",
                                        "l_returnflag"])
    parts = group_map(
        li.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "part", summarize,
    ).to_pandas().sort_values("part")  # P constant-size summaries

    import pandas as pd

    # sequential fold stitching boundary runs between adjacent partitions
    n_rows = int(parts["n_rows"].sum())
    n_runs = 0
    max_run = 0
    carry_val = None
    carry_len = 0
    for _, s in parts.iterrows():
        single = s["n_runs"] == 1  # whole partition is one run
        if carry_val == s["first_val"]:
            merged = carry_len + int(s["prefix_len"])
            n_runs += int(s["n_runs"]) - 1  # first run merges into carry
            max_run = max(max_run, merged, int(s["max_run"]))
            carry_len = merged if single else int(s["suffix_len"])
        else:
            if carry_val is not None:
                max_run = max(max_run, carry_len)
            n_runs += int(s["n_runs"])
            max_run = max(max_run, int(s["max_run"]))
            carry_len = int(s["n_rows"]) if single else int(s["suffix_len"])
        carry_val = s["last_val"]
    max_run = max(max_run, carry_len)
    return pd.DataFrame({
        "n_rows": [np.int64(n_rows)],
        "n_runs": [np.int64(n_runs)],
        "max_run": [np.int64(max_run)],
    })


SQL_RETURNFLAG_RLE_STATS = """
WITH seq AS (
  SELECT l_returnflag AS v,
         CASE WHEN LAG(l_returnflag) OVER w IS DISTINCT FROM l_returnflag
              THEN 1 ELSE 0 END AS new_run,
         ROW_NUMBER() OVER w AS rn
  FROM lineitem
  -- value as the final tie-break: (orderkey, linenumber) is not unique,
  -- so the clustered order must be made total for a well-defined count
  WINDOW w AS (ORDER BY l_orderkey, l_linenumber, l_returnflag)
),
grp AS (
  SELECT v, SUM(new_run) OVER (ORDER BY rn ROWS UNBOUNDED PRECEDING) AS gid
  FROM seq
),
runs AS (SELECT gid, COUNT(*) AS len FROM grp GROUP BY gid)
SELECT CAST((SELECT COUNT(*) FROM lineitem) AS BIGINT) AS n_rows,
       CAST(COUNT(*) AS BIGINT) AS n_runs,
       CAST(MAX(len) AS BIGINT) AS max_run
FROM runs
"""


# --------------------------------------------------------------------------
# edge_orientation_spectrum
# --------------------------------------------------------------------------

SECTORS = ("E", "NE", "N", "NW", "W", "SW", "S", "SE")


def _sector_of(dx: float, dy: float) -> int:
    """8-direction compass classification by SIGN only (no trig, no
    magnitude ties): the four axis directions require the orthogonal
    component to be exactly zero; everything else falls in its open
    quadrant's diagonal sector."""
    if dy == 0.0:
        return 0 if dx > 0.0 else 4
    if dx == 0.0:
        return 2 if dy > 0.0 else 6
    if dx > 0.0:
        return 1 if dy > 0.0 else 7
    return 3 if dy > 0.0 else 5


def _spectrum(ext: np.ndarray) -> list[int]:
    pts = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    out = [0] * 8
    n = len(pts)
    for i in range(n):
        dx = float(pts[(i + 1) % n][0] - pts[i][0])
        dy = float(pts[(i + 1) % n][1] - pts[i][1])
        if dx == 0.0 and dy == 0.0:
            continue
        out[_sector_of(dx, dy)] += 1
    return out


def q_edge_orientation_spectrum(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        spec = np.empty((len(polys), 8), dtype=np.int64)
        for i, rings in enumerate(polys):
            spec[i] = _spectrum(_norm_exterior(rings))
        cols = {
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
        }
        for j, s in enumerate(SECTORS):
            cols[f"n_{s.lower()}"] = pa.array(spec[:, j], type=pa.int64())
        return pa.table(cols)

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_spectrum(ext) -> list[int]:
    """Oracle twin: independent scalar pass with its own branch structure
    (quadrant-first instead of magnitude-first)."""
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    out = [0] * 8
    n = len(pts)
    for i in range(n):
        dx = pts[(i + 1) % n][0] - pts[i][0]
        dy = pts[(i + 1) % n][1] - pts[i][1]
        if dx == 0 and dy == 0:
            continue
        # quadrant-first branch order (independent of the engine's
        # axis-first structure, same sign-only definition)
        if dx > 0 and dy > 0:
            out[1] += 1
        elif dx < 0 and dy > 0:
            out[3] += 1
        elif dx < 0 and dy < 0:
            out[5] += 1
        elif dx > 0 and dy < 0:
            out[7] += 1
        elif dy == 0:
            out[0 if dx > 0 else 4] += 1
        else:
            out[2 if dy > 0 else 6] += 1
    return out


def _sql_edge_orientation_spectrum() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    per_sector: list[list[str]] = [[] for _ in range(8)]
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        spec = _twin_spectrum(ext)
        for j in range(8):
            per_sector[j].append(f"WHEN {f} THEN {spec[j]}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    sector_cols = ",\n               ".join(
        f"CAST(CASE doc_id % {n} {' '.join(per_sector[j])} END AS BIGINT)"
        f" AS n_{s.lower()}"
        for j, s in enumerate(SECTORS)
    )
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               {sector_cols}
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext78() -> dict:
    return {
        "returnflag_rle_stats": q_returnflag_rle_stats,
        "edge_orientation_spectrum": q_edge_orientation_spectrum,
    }


def build_oracles_ext78() -> dict:
    return {
        "returnflag_rle_stats": SQL_RETURNFLAG_RLE_STATS,
        "edge_orientation_spectrum": _sql_edge_orientation_spectrum(),
    }
