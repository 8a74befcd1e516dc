"""Round-3 extension operators, batch 83: dictionary-encoding cost and
mirror-symmetry detection.

``dict_encoding_estimate`` — the columnar-storage planning twin of the
varint op: for each low-cardinality string column (events.event_type,
documents.lang, documents.source), the exact raw byte cost
(Σ lengths), the dictionary cost (Σ distinct lengths + n·index_bytes
with index_bytes = ceil(ceil(log2(distinct))/8), minimum 1), and the
distinct count.  Everything is integer arithmetic over a bounded
dictionary, and both the per-column byte sums and the log2 ladder
replay in SQL.

``mirror_symmetry_audit`` — per fixture: is the exterior ring
symmetric under reflection about its bbox's vertical / horizontal
center line?  Reflection coordinates are exact for dyadic data
(``xmin + xmax - x``), and symmetry is exact VERTEX-SET equality —
a set comparison, so vertex order/winding don't matter.  Constants
from an independent twin that compares sorted coordinate lists.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


DICT_COLS = (
    ("events", "event_type"),
    ("documents", "lang"),
    ("documents", "source"),
)


def q_dict_encoding_estimate(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    frames = []
    import pandas as pd

    for table, col in DICT_COLS:
        def stage(batch: pa.Table, col=col) -> pa.Table:
            vals = batch.column(col)
            lens = pc.binary_length(vals).to_numpy().astype(np.int64)
            t = pa.table({
                "v": vals,
                "len": pa.array(lens, type=pa.int64()),
            })
            out = t.group_by(["v"]).aggregate([("len", "sum"),
                                               ("v", "count")])
            return pa.table({
                "v": out.column("v"),
                "raw_bytes": pc.cast(out.column("len_sum"), pa.int64()),
                "n": pc.cast(out.column("v_count"), pa.int64()),
            })

        per_val = grouped_aggregate(
            ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                  columns=[col])
            .map_batches(stage, batch_format="pyarrow",
                         zero_copy_batch=True),
            ["v"],
            [("sum", "raw_bytes", "raw_bytes"), ("sum", "n", "n")],
        ).to_pandas()  # bounded: the column's dictionary

        n_distinct = len(per_val)
        n_rows = int(per_val["n"].sum())
        raw = int(per_val["raw_bytes"].sum())
        dict_entry_bytes = int(sum(len(v) for v in per_val["v"]))
        bits = max(1, int(np.ceil(np.log2(max(n_distinct, 2)))))
        idx_bytes = (bits + 7) // 8
        frames.append({
            "column_name": f"{table}.{col}",
            "n_rows": n_rows,
            "n_distinct": n_distinct,
            "raw_bytes": raw,
            "dict_bytes": dict_entry_bytes + n_rows * idx_bytes,
        })
    out = pd.DataFrame(frames)
    for c in ("n_rows", "n_distinct", "raw_bytes", "dict_bytes"):
        out[c] = out[c].astype("int64")
    return out.sort_values("column_name").reset_index(drop=True)


def _sql_dict_encoding_estimate() -> str:
    parts = []
    for table, col in DICT_COLS:
        parts.append(f"""
        SELECT '{table}.{col}' AS column_name,
               CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(COUNT(DISTINCT {col}) AS BIGINT) AS n_distinct,
               CAST(SUM(length({col})) AS BIGINT) AS raw_bytes,
               CAST((SELECT SUM(length(v)) FROM
                       (SELECT DISTINCT {col} AS v FROM {table}))
                    + COUNT(*) *
                      ((GREATEST(1, CAST(CEIL(LOG2(GREATEST(
                          COUNT(DISTINCT {col}), 2))) AS BIGINT)) + 7) // 8)
                    AS BIGINT) AS dict_bytes
        FROM {table}""")
    return " UNION ALL ".join(parts)


# --------------------------------------------------------------------------
# mirror_symmetry_audit
# --------------------------------------------------------------------------


def _vertex_set(ext: np.ndarray) -> set:
    pts = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    return {(float(x), float(y)) for x, y in pts}


def _is_mirror(ext: np.ndarray, axis: int) -> bool:
    """Exact vertex-set equality under reflection about the bbox center
    line perpendicular to ``axis`` (0: vertical line, reflect x)."""
    pts = ext[:-1] if np.array_equal(ext[0], ext[-1]) else ext
    lo = float(pts[:, axis].min())
    hi = float(pts[:, axis].max())
    ref = pts.copy()
    ref[:, axis] = (lo + hi) - ref[:, axis]  # exact for dyadic data
    return _vertex_set(pts) == _vertex_set(ref)


def q_mirror_symmetry_audit(sf_dir: str):
    from ..sources import docs as docs_mod
    from ..stages.label import rings_to_numpy

    from .queries_ext import _dyadic_rings_ds, _norm_exterior

    def stage(batch: pa.Table) -> pa.Table:
        polys = rings_to_numpy(batch.column("rings"))
        doc = batch.column("doc_num").to_numpy()
        mx = np.empty(len(polys), dtype=bool)
        my = np.empty(len(polys), dtype=bool)
        for i, rings in enumerate(polys):
            ext = _norm_exterior(rings)
            mx[i] = _is_mirror(ext, 0)
            my[i] = _is_mirror(ext, 1)
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "mirror_x": pa.array(mx, type=pa.bool_()),
            "mirror_y": pa.array(my, type=pa.bool_()),
        })

    return _dyadic_rings_ds(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def _twin_is_mirror(ext, axis: int) -> bool:
    """Oracle twin: sorted-list comparison instead of set comparison."""
    pts = [(float(x), float(y)) for x, y in ext]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    lo = min(p[axis] for p in pts)
    hi = max(p[axis] for p in pts)
    if axis == 0:
        ref = [((lo + hi) - x, y) for x, y in pts]
    else:
        ref = [(x, (lo + hi) - y) for x, y in pts]
    return sorted(set(pts)) == sorted(set(ref))


def _sql_mirror_symmetry_audit() -> str:
    from ..sources import docs as docs_mod
    from ..sources.fixtures import DYADIC_FIXTURES, FIXTURE_CYCLE, FIXTURES

    from .queries_ext import DYADIC_IDX, _norm_exterior

    cx_, cy_ = [], []
    for name in DYADIC_FIXTURES:
        f = FIXTURE_CYCLE.index(name)
        ext = _norm_exterior(
            [np.asarray(r, dtype=np.float64) for r in FIXTURES[name].rings]
        )
        cx_.append(f"WHEN {f} THEN {str(_twin_is_mirror(ext, 0)).upper()}")
        cy_.append(f"WHEN {f} THEN {str(_twin_is_mirror(ext, 1)).upper()}")
    n = docs_mod.N_FIXTURES
    mods = ",".join(str(m) for m in DYADIC_IDX)
    return f"""
        SELECT doc_id AS doc_num, doc_id % {n} AS fixture_idx,
               CASE doc_id % {n} {' '.join(cx_)} END AS mirror_x,
               CASE doc_id % {n} {' '.join(cy_)} END AS mirror_y
        FROM documents WHERE doc_id % {n} IN ({mods})
    """


def build_queries_ext83() -> dict:
    return {
        "dict_encoding_estimate": q_dict_encoding_estimate,
        "mirror_symmetry_audit": q_mirror_symmetry_audit,
    }


def build_oracles_ext83() -> dict:
    return {
        "dict_encoding_estimate": _sql_dict_encoding_estimate(),
        "mirror_symmetry_audit": _sql_mirror_symmetry_audit(),
    }
