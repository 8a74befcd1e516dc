"""Round-3 extension operators, batch 26: feature hashing and tile-grid
heat smoothing.

``feature_hash`` — the hashing-trick vectorizer (Weinberger et al. 2009):
every token maps to bucket ``md5_low64(token) % D`` and per-doc bucket
counts are the fixed-width sparse feature vector, vocabulary-free.  The
map is STATELESS and shuffle-free (docs are single rows): one arrow
group_by per batch builds (doc, bucket) counts; token hashes are computed
once per DISTINCT term per batch via dictionary encoding.  md5 low 8
bytes LE == DuckDB ``md5_number_lower``, so the oracle replays bucket
assignment exactly (same contract as ``simhash``).

``tile_heat_smooth`` — 3x3 box-filter smoothing of the label-point tile
histogram (the raster-convolution step of heatmap rendering), zero-padded
at the world edge with a FIXED divisor 9 so the arithmetic is one integer
sum + one double division on both sides.  Scale shape: the histogram is
<= 4^res rows, so the convolution runs as histogram -> 9-way neighbor
fanout (morton decode/encode are bit-shifts) -> one (tile) re-aggregate;
the document stream is scanned ONCE.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

FEATURE_DIM = 256  # hashing-trick bucket count


# --------------------------------------------------------------------------
# feature hashing
# --------------------------------------------------------------------------


def _md5_low64(term: str) -> int:
    return int.from_bytes(hashlib.md5(term.encode()).digest()[8:], "little")


def q_feature_hash(sf_dir: str):
    from .queries_ext2 import tokens_flat

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def hash_features(batch: pa.Table) -> pa.Table:
        flat, off = tokens_flat(batch.column("text"))
        did = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.int64), np.diff(off)
        )
        if len(flat) == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "bucket": pa.array([], type=pa.int64()),
                "cnt": pa.array([], type=pa.int64()),
            })
        dic = flat.dictionary_encode()
        vocab = dic.dictionary.to_pylist()
        buckets = np.array(
            [_md5_low64(t) % FEATURE_DIM for t in vocab], dtype=np.int64
        )  # one md5 per DISTINCT term in the batch
        tok_bucket = buckets[dic.indices.to_numpy().astype(np.int64)]
        g = pa.table({
            "doc_id": pa.array(did, type=pa.int64()),
            "bucket": pa.array(tok_bucket, type=pa.int64()),
        }).group_by(["doc_id", "bucket"]).aggregate([([], "count_all")])
        return pa.table({
            "doc_id": g.column("doc_id"),
            "bucket": g.column("bucket"),
            "cnt": pc.cast(g.column("count_all"), pa.int64()),
        })

    return ds.map_batches(hash_features, batch_format="pyarrow", zero_copy_batch=True)


SQL_FEATURE_HASH = rf"""
    WITH toks AS (
        SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
        FROM documents
    )
    SELECT doc_id,
           CAST(md5_number_lower(term) % {FEATURE_DIM} AS BIGINT) AS bucket,
           CAST(COUNT(*) AS BIGINT) AS cnt
    FROM toks GROUP BY 1, 2
"""


# --------------------------------------------------------------------------
# tile heat smoothing
# --------------------------------------------------------------------------

_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def q_tile_heat_smooth(sf_dir: str):
    from ..config import DEFAULT_TILE_RES
    from ..stages.cells import decode_cells, encode_cells
    from .agg import grouped_aggregate
    from .queries import CELL_COLUMNS, _dyadic_labeled

    n = 1 << DEFAULT_TILE_RES

    hist = grouped_aggregate(
        _dyadic_labeled(sf_dir, CELL_COLUMNS),
        ["tile_id"],
        [("count", None, "n_points")],
    )

    def fanout(batch: pa.Table) -> pa.Table:
        tid = batch.column("tile_id").to_numpy()
        cnt = batch.column("n_points").to_numpy().astype(np.int64)
        ix, iy, _res = decode_cells(tid)
        outs_t, outs_n = [], []
        for dx, dy in _OFFSETS:
            jx, jy = ix + dx, iy + dy
            ok = (jx >= 0) & (jx < n) & (jy >= 0) & (jy < n)
            outs_t.append(encode_cells(jx[ok], jy[ok], DEFAULT_TILE_RES))
            outs_n.append(cnt[ok])
        return pa.table({
            "tile_id": pa.array(np.concatenate(outs_t), type=pa.int64()),
            "n": pa.array(np.concatenate(outs_n), type=pa.int64()),
        })

    smoothed = grouped_aggregate(
        hist.map_batches(fanout, batch_format="pyarrow", zero_copy_batch=True),
        ["tile_id"],
        [("sum", "n", "heat_sum")],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "heat",
            pc.divide(pc.cast(batch.column("heat_sum"), pa.float64()), 9.0),
        )

    return smoothed.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


def _sql_tile_heat_smooth() -> str:
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
    from .queries import sql_morton_expr
    from .queries import _sql_dyadic_labels_cte

    n = 1 << DEFAULT_TILE_RES
    cell = WORLD_SIZE / n

    def grid(c):
        return (
            f"LEAST({n - 1}, GREATEST(0, "
            f"CAST(FLOOR(({c} - ({WORLD_MIN!r})) / {cell!r}) AS BIGINT)))"
        )

    tid = sql_morton_expr("c.ix", "c.iy", DEFAULT_TILE_RES)
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        hist AS (
            SELECT {grid('label_x')} AS ix, {grid('label_y')} AS iy,
                   CAST(COUNT(*) AS BIGINT) AS cnt
            FROM labels GROUP BY 1, 2
        ),
        contrib AS (
            SELECT h.ix + dd.dx AS ix, h.iy + dd.dy AS iy, h.cnt
            FROM hist h
            CROSS JOIN (
                SELECT x.dx, y.dy
                FROM (SELECT unnest([-1, 0, 1]) AS dx) x,
                     (SELECT unnest([-1, 0, 1]) AS dy) y
            ) dd
        ),
        agg AS (
            SELECT ix, iy, CAST(SUM(cnt) AS BIGINT) AS heat_sum
            FROM contrib
            WHERE ix >= 0 AND ix < {n} AND iy >= 0 AND iy < {n}
            GROUP BY 1, 2
        )
        SELECT {tid} AS tile_id, c.heat_sum,
               CAST(c.heat_sum AS DOUBLE) / 9.0 AS heat
        FROM agg c
    """


def build_queries_ext26() -> dict:
    return {
        "feature_hash": q_feature_hash,
        "tile_heat_smooth": q_tile_heat_smooth,
    }


def build_oracles_ext26() -> dict:
    return {
        "feature_hash": SQL_FEATURE_HASH,
        "tile_heat_smooth": _sql_tile_heat_smooth(),
    }
