"""Round-3 extension operators, batch 161: business-day ship lag +
greedy vocabulary set cover.

``busday_ship_lag`` — the business-day (Mon-Fri) lag histogram between
``o_orderdate`` and ``l_shipdate``, per order priority: the
calendar-aware SLA operator.  The join is the established
co-partitioned union shape (both sides hash-partition on the order
key through ONE exchange; orders attach to lineitems via searchsorted
inside each partition — the order key is unique on the orders side).
The engine counts with ``np.busday_count`` (half-open [order, ship),
negative when shipping precedes ordering — this corpus contains such
rows); the oracle derives the same number from the closed form
``g(x) = 5·(x//7) + LEAST(x mod 7, 5)`` with ``x`` = days since
Monday 1969-12-29, so ``lag = g(ship) - g(order)`` — an independent
derivation of the busday count, not a replay of numpy.

``vocab_set_cover`` — greedy SET COVER of the corpus vocabulary by
documents (the dataset-curation primitive "pick the fewest docs that
exercise every token"): repeatedly pick the document covering the
most still-uncovered vocabulary words (ties to the lowest doc_id)
until no candidate adds coverage.  Candidates are the SHORT documents
(n_chars <= 120): unrestricted, a single long document covers the
whole 31-word vocabulary and the cover degenerates to one step
(measured), while the short-doc universe takes 3-4 genuinely greedy
steps at every scale factor and still reaches full coverage.  The vocabulary here is ≤ 63
words (31 on this corpus), so a word↔bit assignment (sorted order)
turns coverage into int64 BITMASKS: the engine computes per-doc masks
distributed (vectorized split + broadcast word→bit table), reduces to
distinct (mask, min doc_id) pairs through the groupby exchange, and
runs the ≤|V|-step greedy on that bounded table; the oracle replays
the greedy as a recursive CTE whose scalar state is the covered
bitmask, advancing via an ORDER BY bit_count(mask & ~covered) DESC,
doc_id LIMIT 1 pick — DuckDB's bit_count/bitwise ops make every step
value-checkable.  Greedy's ln(n)-approximation is deliberate and
documented; what the oracle pins is the exact deterministic pick
sequence.

Reference anchors: relational + corpus-curation families (SURVEY.md
§2.4); siblings: order_fulfillment (the co-partitioned union join),
supplier_leadtime_stats (calendar lags, incl. negative), vocab_ids /
vocab_growth_curve (vocabulary machinery), contamination_check.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

_MONDAY_EPOCH_DAYS = -3  # 1969-12-29 (a Monday) in days since 1970-01-01
COVER_MAX_CHARS = 120  # set-cover candidate gate (see vocab_set_cover doc)


# --------------------------------------------------------------------------
# busday_ship_lag
# --------------------------------------------------------------------------


def q_busday_ship_lag(sf_dir: str, n_parts: int | None = None):
    from .agg import grouped_aggregate

    import ray

    def order_side(batch: pa.Table) -> pa.Table:
        key = batch.column("o_orderkey").to_numpy().astype(np.int64)
        odays = (pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy()
                 // 86_400_000_000)
        return pa.table({
            "key": pa.array(key, type=pa.int64()),
            "odays": pa.array(odays, type=pa.int64()),
            "sdays": pa.nulls(batch.num_rows, pa.int64()),
            "prio": batch.column("o_orderpriority"),
        })

    def line_side(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        sdays = (pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy()
                 // 86_400_000_000)
        return pa.table({
            "key": pa.array(key, type=pa.int64()),
            "odays": pa.nulls(batch.num_rows, pa.int64()),
            "sdays": pa.array(sdays, type=pa.int64()),
            "prio": pa.nulls(batch.num_rows, pa.string()),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(order_side, batch_format="pyarrow", zero_copy_batch=True)
    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"],
    ).map_batches(line_side, batch_format="pyarrow", zero_copy_batch=True)

    def join_group(group: pa.Table) -> pa.Table:
        is_order = pc.is_valid(group.column("odays"))
        o = group.filter(is_order)
        l = group.filter(pc.invert(is_order))
        okey = o.column("key").to_numpy().astype(np.int64)
        oord = np.argsort(okey, kind="stable")
        okey = okey[oord]
        odays = o.column("odays").to_numpy().astype(np.int64)[oord]
        prio = np.asarray(o.column("prio").to_pylist(), dtype=object)[oord]
        lkey = l.column("key").to_numpy().astype(np.int64)
        sdays = l.column("sdays").to_numpy().astype(np.int64)
        pos = np.searchsorted(okey, lkey)
        assert np.all(okey[pos] == lkey)  # FK integrity within partition
        begin = odays[pos].astype("datetime64[D]")
        end = sdays.astype("datetime64[D]")
        # antisymmetric convention: lag(a, b) == -lag(b, a); numpy's own
        # reversed-argument behavior is NOT the negated forward count, so
        # negative lags are computed as the negated forward interval.
        neg = end < begin
        lag = np.empty(len(end), dtype=np.int64)
        lag[~neg] = np.busday_count(begin[~neg], end[~neg])
        lag[neg] = -np.busday_count(end[neg], begin[neg])
        lp = prio[pos]
        # bounded partial: (prio, lag) histogram
        t = pa.table({
            "o_orderpriority": pa.array(lp.tolist(), type=pa.string()),
            "lag_busdays": pa.array(lag, type=pa.int64()),
            "one": pa.array(np.ones(len(lag), dtype=np.int64)),
        })
        out = t.group_by(["o_orderpriority", "lag_busdays"]).aggregate(
            [("one", "sum")])
        return pa.table({
            "o_orderpriority": out.column("o_orderpriority"),
            "lag_busdays": out.column("lag_busdays"),
            "n": pc.cast(out.column("one_sum"), pa.int64()),
        })

    both = orders.union(lines)
    per = hash_exchange(both, "key", join_group, n_parts)
    return grouped_aggregate(
        per, ["o_orderpriority", "lag_busdays"], [("sum", "n", "n")],
    )


SQL_BUSDAY_SHIP_LAG = f"""
WITH j AS (
  SELECT o.o_orderpriority,
         date_diff('day', DATE '1969-12-29', CAST(o.o_orderdate AS DATE))
           AS xo,
         date_diff('day', DATE '1969-12-29', CAST(l.l_shipdate AS DATE))
           AS xs
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
)
SELECT o_orderpriority,
       CAST((5 * (xs // 7) + LEAST(xs % 7, 5))
            - (5 * (xo // 7) + LEAST(xo % 7, 5)) AS BIGINT) AS lag_busdays,
       CAST(COUNT(*) AS BIGINT) AS n
FROM j GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# vocab_set_cover
# --------------------------------------------------------------------------


def q_vocab_set_cover(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    path = f"{sf_dir}/documents.parquet"

    # pass 1: the vocabulary over the FULL corpus (bounded <= 63 words)
    def words(batch: pa.Table) -> pa.Table:
        ws = set()
        for t in batch.column("text").to_pylist():
            ws.update(t.split(" "))
        return pa.table({"w": pa.array(sorted(ws), type=pa.string())})

    vocab_rows = grouped_aggregate(
        ray.data.read_parquet(path, columns=["text"]).map_batches(
            words, batch_format="pyarrow", zero_copy_batch=True),
        ["w"], [("count", None, "cnt")],
    ).to_pandas()
    vocab = sorted(vocab_rows["w"])
    if len(vocab) > 63:
        raise ValueError(f"vocab {len(vocab)} exceeds int64 bitmask budget")
    bit = {w: i for i, w in enumerate(vocab)}
    bit_ref = ray.put(bit)

    # pass 2: per-doc masks -> distinct (mask, min doc_id) through the
    # groupby exchange (bounded by min(docs, 2^|V|) distinct masks)
    def masks(batch: pa.Table) -> pa.Table:
        b = ray.get(bit_ref)
        keep = pc.less_equal(batch.column("n_chars"), COVER_MAX_CHARS)
        batch = batch.filter(keep)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        ms = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch.column("text").to_pylist()):
            m = 0
            for w in set(t.split(" ")):
                m |= 1 << b[w]
            ms[i] = m
        return pa.table({
            "mask": pa.array(ms, type=pa.int64()),
            "doc_id": pa.array(ids, type=pa.int64()),
        })

    dm = grouped_aggregate(
        ray.data.read_parquet(
            path, columns=["doc_id", "text", "n_chars"]).map_batches(
            masks, batch_format="pyarrow", zero_copy_batch=True),
        ["mask"], [("min", "doc_id", "doc_id")],
    ).to_pandas()

    mask_arr = dm["mask"].to_numpy().astype(np.int64)
    id_arr = dm["doc_id"].to_numpy().astype(np.int64)
    covered = 0
    steps, docs, newly, total = [], [], [], []
    step = 0
    while True:
        gain = np.array([bin(int(m) & ~covered).count("1")
                         for m in mask_arr], dtype=np.int64)
        if gain.max(initial=0) <= 0:
            break
        pick = np.lexsort((id_arr, -gain))[0]
        step += 1
        covered |= int(mask_arr[pick])
        steps.append(step)
        docs.append(int(id_arr[pick]))
        newly.append(int(gain[pick]))
        total.append(bin(covered).count("1"))
    return ray.data.from_arrow(pa.table({
        "step": pa.array(steps, type=pa.int64()),
        "doc_id": pa.array(docs, type=pa.int64()),
        "newly_covered": pa.array(newly, type=pa.int64()),
        "covered_total": pa.array(total, type=pa.int64()),
    }))


SQL_VOCAB_SET_COVER = """
WITH RECURSIVE vocab AS MATERIALIZED (
  SELECT w, ROW_NUMBER() OVER (ORDER BY w) - 1 AS bit
  FROM (SELECT DISTINCT UNNEST(string_split(text, ' ')) AS w
        FROM documents)
), dw AS MATERIALIZED (
  SELECT DISTINCT doc_id, UNNEST(string_split(text, ' ')) AS w
  FROM documents WHERE n_chars <= """ + str(COVER_MAX_CHARS) + """
), masks AS MATERIALIZED (
  SELECT dw.doc_id, CAST(SUM(1::BIGINT << v.bit) AS BIGINT) AS mask
  FROM dw JOIN vocab v ON v.w = dw.w
  GROUP BY 1
), sel AS (
  (SELECT 1 AS step, doc_id, mask AS covered, bit_count(mask) AS newly
   FROM masks
   ORDER BY bit_count(mask) DESC, doc_id LIMIT 1)
  UNION ALL
  SELECT s.step + 1, m.doc_id, s.covered | m.mask,
         bit_count(m.mask & ~s.covered)
  FROM sel s
  JOIN masks m ON m.doc_id = (
    SELECT mm.doc_id FROM masks mm
    WHERE bit_count(mm.mask & ~s.covered) > 0
    ORDER BY bit_count(mm.mask & ~s.covered) DESC, mm.doc_id
    LIMIT 1)
)
SELECT CAST(step AS BIGINT) AS step,
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(newly AS BIGINT) AS newly_covered,
       CAST(bit_count(covered) AS BIGINT) AS covered_total
FROM sel
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext161():
    return {
        "busday_ship_lag": q_busday_ship_lag,
        "vocab_set_cover": q_vocab_set_cover,
    }


def build_oracles_ext161():
    return {
        "busday_ship_lag": SQL_BUSDAY_SHIP_LAG,
        "vocab_set_cover": SQL_VOCAB_SET_COVER,
    }
