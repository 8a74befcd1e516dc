"""Round-2 extension operators, batch 9: analytics widening (conversion
latency, robust statistics, vocabulary build).

* ``user_conversion_latency`` — first-view -> first-purchase latency per
  converting user via ONE pass of sentinel-min conditional aggregates
  (the funnel-op trick), integer microseconds end-to-end.
* ``value_mad`` — median absolute deviation, exactly: the reusable
  two-streamed-pass integer histogram selector finds the median, a
  second dependent pass finds the median of |x - m|.  Never sorts or
  materializes the column; the driver sees O(bins + n/bins) values.
* ``vocab_ids`` — vocabulary build: distinct words with stable
  lexicographic integer ids + corpus counts.  The distinct aggregate is
  distributed; the id assignment enumerates the O(vocab) domain
  driver-side (bounded like every dictionary build)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SENT = np.int64(2**62)
MAD_BINS = 4096


# --------------------------------------------------------------------------
# conversion latency
# --------------------------------------------------------------------------


def q_user_conversion_latency(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        ts = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        et = batch.column("event_type")
        is_v = pc.equal(et, "view").to_numpy(zero_copy_only=False)
        is_p = pc.equal(et, "purchase").to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "fv": pa.array(np.where(is_v, ts, SENT), type=pa.int64()),
            "fp": pa.array(np.where(is_p, ts, SENT), type=pa.int64()),
        })

    mins = grouped_aggregate(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("min", "fv", "fv"), ("min", "fp", "fp")],
    )

    def latency(batch: pa.Table) -> pa.Table:
        fv = batch.column("fv").to_numpy().astype(np.int64)
        fp = batch.column("fp").to_numpy().astype(np.int64)
        ok = (fv < SENT) & (fp < SENT) & (fp >= fv)
        uid = batch.column("user_id").to_numpy().astype(np.int64)[ok]
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "latency_us": pa.array(fp[ok] - fv[ok], type=pa.int64()),
        })

    return mins.map_batches(latency, batch_format="pyarrow", zero_copy_batch=True)


SQL_USER_CONVERSION_LATENCY = """
    WITH m AS (
        SELECT user_id,
               MIN(CASE WHEN event_type = 'view' THEN epoch_us(ts) END) AS fv,
               MIN(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS fp
        FROM events GROUP BY user_id
    )
    SELECT CAST(user_id AS BIGINT) AS user_id,
           CAST(fp - fv AS BIGINT) AS latency_us
    FROM m
    WHERE fv IS NOT NULL AND fp IS NOT NULL AND fp >= fv
"""


# --------------------------------------------------------------------------
# exact MAD via two dependent histogram selections
# --------------------------------------------------------------------------


def exact_median_int(ds, col: str) -> int:
    """quantile_disc-0.5 of an int64 column in two streamed passes: one
    (count, min, max) reduce, one integer-histogram reduce (each batch
    emits ONE O(bins) partial row), then only the single target bin is
    collected (expected n/bins rows) and selected exactly.  At deeper
    scale the bin step recurses instead of collecting."""

    def stats(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy()
        return pa.table({
            "n": pa.array([len(v)], type=pa.int64()),
            "lo": pa.array([int(v.min()) if len(v) else 2**62], type=pa.int64()),
            "hi": pa.array([int(v.max()) if len(v) else -(2**62)], type=pa.int64()),
        })

    st = ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    n = int(st["n"].sum())
    lo, hi = int(st["lo"].min()), int(st["hi"].max())
    if n == 0:
        raise ValueError("median of empty column")
    if lo == hi:
        return lo
    k = int(np.ceil(0.5 * n)) - 1  # 0-indexed rank, quantile_disc semantics
    B = MAD_BINS
    span = hi - lo + 1

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy().astype(np.int64)
        b = ((v - lo) * B) // span
        return pa.table({"hist": pa.array([np.bincount(b, minlength=B)],
                                          type=pa.list_(pa.int64()))})

    parts = ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    h = np.zeros(B, dtype=np.int64)
    for row in parts["hist"]:
        h += np.asarray(row, dtype=np.int64)
    cum = np.r_[0, np.cumsum(h)]
    tb = int(np.searchsorted(cum, k, side="right") - 1)

    def in_bin(batch: pa.Table) -> pa.Table:
        # select by the SAME bin function the histogram used — an interval
        # reconstruction can disagree at floor boundaries
        v = batch.column(col).to_numpy().astype(np.int64)
        return pa.table({
            col: pa.array(v[((v - lo) * B) // span == tb], type=pa.int64())
        })

    vals = np.sort(
        ds.map_batches(in_bin, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()[col]
        .to_numpy()
    )
    return int(vals[k - int(cum[tb])])


def q_value_mad(sf_dir: str):
    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c": pa.array(
                np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64),
                type=pa.int64(),
            )
        })

    cds = ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    med = exact_median_int(cds, "c")

    def absdev(batch: pa.Table) -> pa.Table:
        v = batch.column("c").to_numpy().astype(np.int64)
        return pa.table({"c": pa.array(np.abs(v - med), type=pa.int64())})

    mad = exact_median_int(
        cds.map_batches(absdev, batch_format="pyarrow", zero_copy_batch=True), "c"
    )
    return pa.table({
        "median_cents": pa.array([med], type=pa.int64()),
        "mad_cents": pa.array([mad], type=pa.int64()),
    })


SQL_VALUE_MAD = """
    WITH v AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS c FROM events),
    m AS (SELECT quantile_disc(c, 0.5) AS med FROM v)
    SELECT CAST((SELECT med FROM m) AS BIGINT) AS median_cents,
           CAST((SELECT quantile_disc(abs(c - (SELECT med FROM m)), 0.5)
                 FROM v) AS BIGINT) AS mad_cents
"""


# --------------------------------------------------------------------------
# vocabulary build
# --------------------------------------------------------------------------


def q_vocab_ids(sf_dir: str):
    from .agg import grouped_aggregate
    from .queries_ext2 import tokenized_docs, toks_flat_from_batch

    ds = tokenized_docs(sf_dir)  # shared one-pass tokenization checkpoint

    def words(batch: pa.Table) -> pa.Table:
        flat, _ = toks_flat_from_batch(batch)
        return pa.table({"word": flat})

    counts = (
        grouped_aggregate(
            ds.map_batches(words, batch_format="pyarrow", zero_copy_batch=True),
            ["word"],
            [("count", None, "n")],
        )
        .to_pandas()  # O(vocab) rows — the dictionary being built
        .sort_values("word")
        .reset_index(drop=True)
    )
    return pa.table({
        "word": pa.array(counts["word"].tolist(), type=pa.string()),
        "word_id": pa.array(np.arange(1, len(counts) + 1), type=pa.int64()),
        "n": pa.array(counts["n"].to_numpy(), type=pa.int64()),
    })


SQL_VOCAB_IDS = r"""
    WITH w AS (SELECT UNNEST(regexp_extract_all(text, '\S+')) AS word
               FROM documents),
    c AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM w GROUP BY 1)
    SELECT word, CAST(ROW_NUMBER() OVER (ORDER BY word) AS BIGINT) AS word_id, n
    FROM c
"""


def build_queries_ext8() -> dict:
    return {
        "user_conversion_latency": q_user_conversion_latency,
        "value_mad": q_value_mad,
        "vocab_ids": q_vocab_ids,
    }


def build_oracles_ext8() -> dict:
    return {
        "user_conversion_latency": SQL_USER_CONVERSION_LATENCY,
        "value_mad": SQL_VALUE_MAD,
        "vocab_ids": SQL_VOCAB_IDS,
    }
