"""Round-3 extension operators, batch 96: graph assortativity and
inter-arrival dispersion.

``part_graph_assortativity`` — degree assortativity of the part
co-purchase graph (parts are adjacent when they share an order): the
exact integer moment pieces of the Pearson correlation over edge
endpoints — m, Σ d_u·d_v, Σ (d_u + d_v), Σ (d_u² + d_v²) — so the
assortativity coefficient is a consumer-side rational fold.  Edges
dedup through the int-key hash exchange (pairs generated inside
map_groups per order — batch slices can split an order); degrees are
a bounded part-domain broadcast.

``interarrival_cv2`` — burstiness of each type's event stream via the
squared coefficient of variation of inter-arrival times: per type,
(n, Σd, Σd²) over consecutive gaps in GLOBAL time order — computed
with arithmetic time-range partitions + P-1 boundary gaps stitched at
the driver (the segmented-scan shape again: no global sort, no row
leaves its partition).  Gaps are in MILLISECONDS (floor of the µs
difference — Σd² <= span², which fits int64 in ms but not µs).
CV² = (nΣd² - (Σd)²) / (Σd)² exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import hash_exchange

CV_PARTS = 16


def q_part_graph_assortativity(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    # edges: distinct part pairs sharing an order (pairs inside map_groups —
    # map_batches slices can split an order)
    def pairs_per_order(group: pa.Table) -> pa.Table:
        k = group.column("l_orderkey").to_numpy().astype(np.int64)
        p = group.column("l_partkey").to_numpy().astype(np.int64)
        order = np.lexsort((p, k))
        k, p = k[order], p[order]
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        ends = np.concatenate([starts[1:], [len(k)]])
        a_out, b_out = [], []
        for s, e in zip(starts, ends):
            ps = np.unique(p[s:e])
            if len(ps) < 2:
                continue
            ia, ib = np.triu_indices(len(ps), k=1)
            a_out.append(ps[ia])
            b_out.append(ps[ib])
        if a_out:
            a = np.concatenate(a_out)
            b = np.concatenate(b_out)
        else:
            a = np.empty(0, np.int64)
            b = np.empty(0, np.int64)
        return pa.table({
            "a": pa.array(a, type=pa.int64()),
            "b": pa.array(b, type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    edges = grouped_aggregate(
        hash_exchange(ds, "l_orderkey", pairs_per_order, 32),
        ["a", "b"],
        [("count", None, "_n")],
    ).materialize()  # TWO consumers (deg_tbl + moments): without this the
    # whole lineitem pair exchange executes twice; the distinct-edge table
    # is bounded by the part-key domain, not corpus rows (sf1: 15 s -> 7 s)

    # degrees over the bounded part domain (200k keys at sf1)
    deg_tbl = grouped_aggregate(
        edges.map_batches(
            lambda t: pa.table({
                "p": pa.array(
                    np.concatenate([
                        t.column("a").to_numpy().astype(np.int64),
                        t.column("b").to_numpy().astype(np.int64),
                    ]), type=pa.int64()),
            }), batch_format="pyarrow", zero_copy_batch=True),
        ["p"], [("count", None, "deg")],
    ).to_pandas()
    dk = deg_tbl["p"].to_numpy().astype(np.int64)
    order = np.argsort(dk)
    dk = dk[order]
    dv = deg_tbl["deg"].to_numpy().astype(np.int64)[order]

    def moments(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy().astype(np.int64)
        b = batch.column("b").to_numpy().astype(np.int64)
        da = dv[np.searchsorted(dk, a)]
        db = dv[np.searchsorted(dk, b)]
        return pa.table({
            "g": pa.array([0], type=pa.int64()),
            "m": pa.array([len(a)], type=pa.int64()),
            "s_uv": pa.array([int((da * db).sum())], type=pa.int64()),
            "s_sum": pa.array([int((da + db).sum())], type=pa.int64()),
            "s_sq": pa.array([int((da * da + db * db).sum())],
                             type=pa.int64()),
        })

    return grouped_aggregate(
        edges.map_batches(moments, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["g"],
        [("sum", c, c) for c in ("m", "s_uv", "s_sum", "s_sq")],
    ).select_columns(["m", "s_uv", "s_sum", "s_sq"])


SQL_PART_GRAPH_ASSORTATIVITY = """
WITH op AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
),
edges AS (
  SELECT DISTINCT a.l_partkey AS pa_, b.l_partkey AS pb_
  FROM op a JOIN op b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
deg AS (
  SELECT p, CAST(COUNT(*) AS BIGINT) AS d
  FROM (SELECT pa_ AS p FROM edges UNION ALL SELECT pb_ FROM edges)
  GROUP BY p
)
SELECT CAST(COUNT(*) AS BIGINT) AS m,
       CAST(SUM(da.d * db.d) AS BIGINT) AS s_uv,
       CAST(SUM(da.d + db.d) AS BIGINT) AS s_sum,
       CAST(SUM(da.d * da.d + db.d * db.d) AS BIGINT) AS s_sq
FROM edges e
JOIN deg da ON e.pa_ = da.p
JOIN deg db ON e.pb_ = db.p
"""


def q_interarrival_cv2(sf_dir: str, n_parts: int | None = None):
    import pyarrow.parquet as pq

    import ray
    P = int(n_parts or CV_PARTS)

    # arithmetic time-range partitions (contiguous in event time) — bounds
    # from parquet row-group statistics
    pf = pq.ParquetFile(f"{sf_dir}/events.parquet")
    col_idx = pf.schema_arrow.get_field_index("ts")
    tmin, tmax = None, None
    for rg in range(pf.metadata.num_row_groups):
        st = pf.metadata.row_group(rg).column(col_idx).statistics
        lo = int(np.datetime64(st.min, "us").astype(np.int64))
        hi = int(np.datetime64(st.max, "us").astype(np.int64))
        tmin = lo if tmin is None else min(tmin, lo)
        tmax = hi if tmax is None else max(tmax, hi)
    span = max(tmax - tmin + 1, 1)

    def keyed(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        part = np.minimum((t - tmin) * P // span, P - 1)
        return pa.table({
            "part": pa.array(part, type=pa.int64()),
            "event_type": batch.column("event_type"),
            "t": pa.array(t, type=pa.int64()),
        })

    def summarize(group: pa.Table) -> pa.Table:
        part = int(group.column("part")[0].as_py())
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        t = group.column("t").to_numpy().astype(np.int64)
        rows = {"part": [], "event_type": [], "n_gaps": [], "s1": [],
                "s2": [], "first_t": [], "last_t": [], "n_events": []}
        for typ in np.unique(et):
            tt = np.sort(t[et == typ])
            d = np.diff(tt) // 1000  # milliseconds
            rows["part"].append(part)
            rows["event_type"].append(str(typ))
            rows["n_gaps"].append(len(d))
            rows["s1"].append(int(d.sum()))
            rows["s2"].append(int((d * d).sum()))
            rows["first_t"].append(int(tt[0]))
            rows["last_t"].append(int(tt[-1]))
            rows["n_events"].append(len(tt))
        return pa.table({
            "part": pa.array(rows["part"], type=pa.int64()),
            "event_type": pa.array(rows["event_type"], type=pa.string()),
            "n_gaps": pa.array(rows["n_gaps"], type=pa.int64()),
            "s1": pa.array(rows["s1"], type=pa.int64()),
            "s2": pa.array(rows["s2"], type=pa.int64()),
            "first_t": pa.array(rows["first_t"], type=pa.int64()),
            "last_t": pa.array(rows["last_t"], type=pa.int64()),
            "n_events": pa.array(rows["n_events"], type=pa.int64()),
        })

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])
    parts = group_map(
        ev.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "part", summarize,
    ).to_pandas().sort_values(["event_type", "part"])

    import pandas as pd

    out = []
    for typ, g in parts.groupby("event_type"):
        n_gaps = int(g["n_gaps"].sum())
        s1 = int(g["s1"].sum())
        s2 = int(g["s2"].sum())
        # stitch boundary gaps between adjacent partitions holding this type
        lt = g["last_t"].to_numpy().astype(np.int64)
        ft = g["first_t"].to_numpy().astype(np.int64)
        for i in range(len(g) - 1):
            d = int(ft[i + 1] - lt[i]) // 1000  # milliseconds
            n_gaps += 1
            s1 += d
            s2 += d * d
        out.append({
            "event_type": typ,
            "n_gaps": n_gaps,
            "s1_ms": s1,
            "s2_ms2": s2,
        })
    res = pd.DataFrame(out).sort_values("event_type").reset_index(drop=True)
    for c in ("n_gaps", "s1_ms", "s2_ms2"):
        res[c] = res[c].astype("int64")
    return res


SQL_INTERARRIVAL_CV2 = """
WITH seq AS (
  SELECT event_type,
         (CAST(epoch_us(ts) AS BIGINT)
           - LAG(CAST(epoch_us(ts) AS BIGINT)) OVER
               (PARTITION BY event_type ORDER BY ts)) // 1000 AS d
  FROM events
)
SELECT event_type,
       CAST(COUNT(d) AS BIGINT) AS n_gaps,
       CAST(COALESCE(SUM(d), 0) AS BIGINT) AS s1_ms,
       CAST(COALESCE(SUM(d * d), 0) AS BIGINT) AS s2_ms2
FROM seq GROUP BY event_type
"""


def build_queries_ext96() -> dict:
    return {
        "part_graph_assortativity": q_part_graph_assortativity,
        "interarrival_cv2": q_interarrival_cv2,
    }


def build_oracles_ext96() -> dict:
    return {
        "part_graph_assortativity": SQL_PART_GRAPH_ASSORTATIVITY,
        "interarrival_cv2": SQL_INTERARRIVAL_CV2,
    }
