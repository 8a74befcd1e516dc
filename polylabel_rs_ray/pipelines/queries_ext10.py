"""Round-2 extension operators, batch 11: data-cleaning + paging.

* ``value_outliers`` — robust (median/MAD) outlier filter: events whose
  |value - median| > 3 * MAD, with both statistics computed exactly by
  the streamed integer-histogram selector — the data-cleaning shape of
  an LLM-pipeline quality gate, never sorting or collecting the column.
* ``value_page`` — deep paging (global ORDER BY ... OFFSET k LIMIT m)
  WITHOUT a global sort: the integer histogram locates the bins holding
  ranks [k, k+m), only those bins' rows are collected and ranked
  exactly (expected n/bins rows), with a deterministic (value, id)
  total order."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PAGE_OFFSET = 100
PAGE_LIMIT = 10
OUTLIER_K = 3  # |x - median| > K * MAD


# --------------------------------------------------------------------------
# robust outlier filter
# --------------------------------------------------------------------------


def q_value_outliers(sf_dir: str):
    from .queries_ext8 import exact_median_int

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

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
    thresh = OUTLIER_K * mad  # integer cents — the filter predicate is exact

    def flag(batch: pa.Table) -> pa.Table:
        v = np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64)
        keep = np.abs(v - med) > thresh
        return pa.table({
            "event_id": pc.cast(batch.column("event_id"), pa.int64()).filter(
                pa.array(keep)
            ),
            "value_cents": pa.array(v[keep], type=pa.int64()),
        })

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


SQL_VALUE_OUTLIERS = f"""
    WITH v AS (SELECT event_id, CAST(ROUND(value * 100) AS BIGINT) AS c
               FROM events),
    m AS (SELECT quantile_disc(c, 0.5) AS med FROM v),
    d AS (SELECT quantile_disc(abs(c - (SELECT med FROM m)), 0.5) AS mad FROM v)
    SELECT CAST(event_id AS BIGINT) AS event_id, c AS value_cents
    FROM v
    WHERE abs(c - (SELECT med FROM m)) > {OUTLIER_K} * (SELECT mad FROM d)
"""


# --------------------------------------------------------------------------
# deep paging without a global sort
# --------------------------------------------------------------------------


def q_value_page(sf_dir: str):
    """Rows globally ranked [offset, offset+limit) by (value desc,
    event_id asc): one histogram pass bounds which value range can hold
    those ranks, only that range's rows are collected (expected n/bins)
    and exactly ranked.  The total order is made unique by the id
    tiebreak, so the page is deterministic."""
    import ray
    B = 4096
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "c": pa.array(
                np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64),
                type=pa.int64(),
            ),
        })

    cds = ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)

    def stats(batch: pa.Table) -> pa.Table:
        v = batch.column("c").to_numpy()
        return pa.table({
            "n": pa.array([len(v)], type=pa.int64()),
            "lo": pa.array([int(v.min()) if len(v) else 2**62], type=pa.int64()),
            "hi": pa.array([int(v.max()) if len(v) else -(2**62)], type=pa.int64()),
        })

    st = cds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    lo, hi = int(st["lo"].min()), int(st["hi"].max())
    span = hi - lo + 1

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column("c").to_numpy().astype(np.int64)
        return pa.table({"hist": pa.array(
            [np.bincount((v - lo) * B // span, minlength=B)],
            type=pa.list_(pa.int64()),
        )})

    parts = cds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    h = np.zeros(B, dtype=np.int64)
    for row in parts["hist"]:
        h += np.asarray(row, dtype=np.int64)
    # descending rank: count of rows in HIGHER bins precedes each bin
    above = np.r_[0, np.cumsum(h[::-1])][::-1][1:]  # rows strictly above bin b
    # bins whose [above, above+count) overlaps [offset, offset+limit)
    want = (above < PAGE_OFFSET + PAGE_LIMIT) & (above + h > PAGE_OFFSET)
    bins = np.flatnonzero(want)
    bset = set(int(b) for b in bins)

    def in_bins(batch: pa.Table) -> pa.Table:
        v = batch.column("c").to_numpy().astype(np.int64)
        b = (v - lo) * B // span
        keep = np.isin(b, list(bset))
        return pa.table({
            "event_id": batch.column("event_id").filter(pa.array(keep)),
            "c": pa.array(v[keep], type=pa.int64()),
        })

    cand = (
        cds.map_batches(in_bins, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # expected (limit + n/bins)-sized candidate set
    )
    eid = cand["event_id"].to_numpy().astype(np.int64)
    c = cand["c"].to_numpy().astype(np.int64)
    order = np.lexsort((eid, -c))
    # the candidate block's best row sits at the global rank of the
    # HIGHEST-value overlapping bin
    first_rank = int(above[bins.max()]) if len(bins) else 0
    take = order[PAGE_OFFSET - first_rank : PAGE_OFFSET - first_rank + PAGE_LIMIT]
    return pa.table({
        "event_id": pa.array(eid[take], type=pa.int64()),
        "value_cents": pa.array(c[take], type=pa.int64()),
        "rank": pa.array(
            np.arange(PAGE_OFFSET + 1, PAGE_OFFSET + 1 + len(take)), type=pa.int64()
        ),
    })


SQL_VALUE_PAGE = f"""
    SELECT CAST(event_id AS BIGINT) AS event_id,
           CAST(ROUND(value * 100) AS BIGINT) AS value_cents,
           CAST(ROW_NUMBER() OVER (ORDER BY value DESC, event_id ASC) AS BIGINT)
               AS rank
    FROM events
    QUALIFY rank > {PAGE_OFFSET} AND rank <= {PAGE_OFFSET + PAGE_LIMIT}
"""


def build_queries_ext10() -> dict:
    return {
        "value_outliers": q_value_outliers,
        "value_page": q_value_page,
    }


def build_oracles_ext10() -> dict:
    return {
        "value_outliers": SQL_VALUE_OUTLIERS,
        "value_page": SQL_VALUE_PAGE,
    }
