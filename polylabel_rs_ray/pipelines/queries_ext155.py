"""Round-3 extension operators, batch 155: exact class medoids + isotonic
regression.

``sq8_class_medoids`` — the prototype-selection op of an embedding
pipeline (k-medoids' assignment-free core): for every label class, the
vector minimizing the total squared L2 distance to its classmates, made
EXACT and single-pass by the Gram identity ``Σ_j ‖x_i − x_j‖² =
n·‖x_i‖² − 2·x_i·s + Σ_j ‖x_j‖²`` over SQ8 integer codes — only the
class count, the class sum VECTOR s, and the class sum-of-squares are
needed, all constant-size mergeable partials.  Pass 1 reduces the
bounded (label × (dim+2)) stat table via map-side combine; pass 2
broadcasts it and computes every vector's cost in one vectorized
matmul, reducing per-class argmin by (cost, vec_id).  No O(n²)
pairwise work anywhere; the oracle replays the identity in SQL.

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

Reference anchors: similarity + regression families (SURVEY.md §2.4);
siblings: embedding_gram (constant-size linear-algebra partials),
sq8_1nn_label_audit (integer code kernels), ols_price_model (exact
regression by determinants).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# sq8_class_medoids
# --------------------------------------------------------------------------


def q_sq8_class_medoids(sf_dir: str):
    from .agg import grouped_aggregate
    from .queries_ext32 import _minmax, _quantize
    from .sim import embedding_matrix

    import ray
    mn, mx = _minmax(sf_dir)
    span = np.where(mx > mn, mx - mn, 1.0)
    path = f"{sf_dir}/embeddings.parquet"
    ds = ray.data.read_parquet(path,
                               columns=["vec_id", "embedding", "label"])

    # pass 1: per-label (count, sumsq, per-dim sums) — packed as
    # (label, d, val) rows with d = -1 count / d = -2 sumsq sentinels
    def stats(batch: pa.Table) -> pa.Table:
        c = _quantize(embedding_matrix(batch), mn, span)
        lab = pc.cast(batch.column("label"), pa.int64()).to_numpy()
        labs = np.unique(lab)
        dim = c.shape[1]
        ls, ds_, vs = [], [], []
        for lv in labs:
            rows = c[lab == lv]
            ls.extend([int(lv)] * (dim + 2))
            ds_.extend(list(range(dim)) + [-1, -2])
            vs.extend(list(rows.sum(axis=0)) +
                      [rows.shape[0], int((rows * rows).sum())])
        return pa.table({
            "label": pa.array(ls, type=pa.int64()),
            "d": pa.array(ds_, type=pa.int64()),
            "val": pa.array(vs, type=pa.int64()),
        })

    st = grouped_aggregate(
        ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True),
        ["label", "d"], [("sum", "val", "val")],
    ).to_pandas()  # bounded: labels x (dim + 2)

    labels = np.sort(st["label"].unique())
    dim = int(st["d"].max()) + 1
    svec = np.zeros((len(labels), dim), dtype=np.int64)
    n_l = np.zeros(len(labels), dtype=np.int64)
    S_l = np.zeros(len(labels), dtype=np.int64)
    lpos = {int(v): i for i, v in enumerate(labels)}
    for r in st.itertuples():
        i = lpos[int(r.label)]
        if r.d == -1:
            n_l[i] = r.val
        elif r.d == -2:
            S_l[i] = r.val
        else:
            svec[i, int(r.d)] = r.val
    stats_ref = ray.put((labels, svec, n_l, S_l))

    # pass 2: vectorized per-vector cost, per-class argmin partials
    def argmin_partial(batch: pa.Table) -> pa.Table:
        labs, sv, nl, Sl = ray.get(stats_ref)
        c = _quantize(embedding_matrix(batch), mn, span)
        lab = pc.cast(batch.column("label"), pa.int64()).to_numpy()
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        li = np.searchsorted(labs, lab)
        e = (c * c).sum(axis=1)
        xs = np.einsum("ij,ij->i", c, sv[li])  # int64 exact
        cost = nl[li] * e - 2 * xs + Sl[li]
        out_l, out_c, out_v = [], [], []
        for lv in np.unique(lab):
            m = lab == lv
            order = np.lexsort((vid[m], cost[m]))
            out_l.append(int(lv))
            out_c.append(int(cost[m][order[0]]))
            out_v.append(int(vid[m][order[0]]))
        return pa.table({
            "label": pa.array(out_l, type=pa.int64()),
            "cost": pa.array(out_c, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
        })

    parts = ds.map_batches(argmin_partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    parts = parts.sort_values(["label", "cost", "vec_id"]) \
        .groupby("label", as_index=False).first()
    return ray.data.from_arrow(pa.table({
        "label": pa.array(parts["label"].astype(np.int64)),
        "medoid_vec_id": pa.array(parts["vec_id"].astype(np.int64)),
        "total_sq_dist": pa.array(parts["cost"].astype(np.int64)),
    }))


def _sql_sq8_class_medoids() -> str:
    from .queries_ext125 import _SQL_CODES

    return _SQL_CODES + """
, e AS (
  SELECT vec_id, SUM(code * code) AS e FROM codes GROUP BY 1
), lab AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label FROM embeddings
), cls AS (
  SELECT l.label, COUNT(*) AS n, SUM(e.e) AS ss
  FROM e JOIN lab l USING (vec_id) GROUP BY 1
), sv AS (
  SELECT l.label, c.d, SUM(c.code) AS sd
  FROM codes c JOIN lab l USING (vec_id) GROUP BY 1, 2
), dotv AS (
  SELECT l.label, c.vec_id, SUM(c.code * s.sd) AS xs
  FROM codes c JOIN lab l USING (vec_id)
  JOIN sv s ON s.label = l.label AND s.d = c.d
  GROUP BY 1, 2
), cost AS (
  SELECT d.label, d.vec_id,
         cls.n * e.e - 2 * d.xs + cls.ss AS cost
  FROM dotv d JOIN e USING (vec_id) JOIN cls ON cls.label = d.label
)
SELECT CAST(label AS BIGINT) AS label,
       CAST(vec_id AS BIGINT) AS medoid_vec_id,
       CAST(cost AS BIGINT) AS total_sq_dist
FROM (
  SELECT *, ROW_NUMBER() OVER (
      PARTITION BY label ORDER BY cost, vec_id) AS rn
  FROM cost
) WHERE rn = 1
"""


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
        "sq8_class_medoids": q_sq8_class_medoids,
        "isotonic_price_size": q_isotonic_price_size,
    }


def build_oracles_ext155() -> dict:
    return {
        "sq8_class_medoids": _sql_sq8_class_medoids(),
        "isotonic_price_size": SQL_ISOTONIC_PRICE_SIZE,
    }
