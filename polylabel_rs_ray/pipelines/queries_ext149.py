"""Round-3 extension operators, batch 149: word-length spectrum +
label tile-margin clearance.

``word_length_histogram`` — the tokenizer-design statistic "how long
are the corpus's words": global histogram of whitespace-token
character lengths (the registry tokenization contract), computed
per batch from the Arrow string offsets (token lengths are offset
differences of the split result — no per-character Python), folded
through the bounded length-domain combine.  Oracle: LATERAL unnest +
length().

``label_tile_clearance`` — the render-margin audit: per dyadic
document, the distance from its computed label point to the nearest
edge of its 32×32 render tile, in exact 1/64-of-a-tile integer units
(labels are dyadic with denominator ≤ 64·tile for these fixtures —
min(fx, fy, 1−fx, 1−fy) of the within-tile fraction, scaled so the
comparison is integer; a label on a tile edge scores 0).  Labels are
fixture constant + integer offset, and the tile width divides the
offset lattice, so clearance is a PER-FIXTURE constant — the oracle
replays the tile arithmetic over the label CTE.

Reference anchors: text + raster-QA families (SURVEY.md §2.3/2.4);
siblings: token_counts (tokenization contract), letter_frequency_
matrix (byte-level vectorization), label_clearance (polygon-boundary
counterpart), tile_counts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# --------------------------------------------------------------------------
# word_length_histogram
# --------------------------------------------------------------------------


def q_word_length_histogram(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def lengths(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column("text")), r"\s+")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        child = flat.values  # flat string array of tokens
        off = child.buffers()[1]
        offs = np.frombuffer(off, dtype=np.int32,
                             count=len(child) + 1).astype(np.int64)
        ln = np.diff(offs)
        ln = ln[ln > 0]  # the split can emit empty strings at edges
        lens, cnt = np.unique(ln, return_counts=True)
        return pa.table({
            "word_len": pa.array(lens, type=pa.int64()),
            "n_words": pa.array(cnt.astype(np.int64), type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(lengths, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["word_len"], [("sum", "n_words", "n_words")],
    )


SQL_WORD_LENGTH_HISTOGRAM = r"""
WITH toks AS (
  SELECT UNNEST(regexp_extract_all(lower(text), '\S+')) AS w
  FROM documents
)
SELECT CAST(LENGTH(w) AS BIGINT) AS word_len,
       CAST(COUNT(*) AS BIGINT) AS n_words
FROM toks GROUP BY 1
"""


# --------------------------------------------------------------------------
# label_tile_clearance
# --------------------------------------------------------------------------

CLEAR_SCALE = 64  # integer units per tile width (labels are dyadic/64)


def q_label_tile_clearance(sf_dir: str):
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
    from ..sources import docs as docs_mod
    from .queries import _dyadic_labeled

    n = 1 << DEFAULT_TILE_RES
    tile_w = WORLD_SIZE / n

    def stage(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_num").to_numpy().astype(np.int64)
        # within-tile position scaled to exact integer 1/64-tile units
        def units(col):
            v = batch.column(col).to_numpy()
            rel = (v - WORLD_MIN) / tile_w
            frac = rel - np.floor(rel)
            return np.round(frac * CLEAR_SCALE).astype(np.int64)

        ux = units("label_x")
        uy = units("label_y")
        clear = np.minimum.reduce([ux, uy, CLEAR_SCALE - ux,
                                   CLEAR_SCALE - uy])
        return pa.table({
            "doc_num": pa.array(doc, type=pa.int64()),
            "fixture_idx": pa.array(doc % docs_mod.N_FIXTURES,
                                    type=pa.int64()),
            "clearance_units": pa.array(clear, type=pa.int64()),
        })

    return _dyadic_labeled(sf_dir).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True)


def _sql_label_tile_clearance() -> str:
    from ..config import DEFAULT_TILE_RES, WORLD_MIN, WORLD_SIZE
    from ..sources import docs as docs_mod
    from .queries import _sql_dyadic_labels_cte

    n = 1 << DEFAULT_TILE_RES
    tile_w = WORLD_SIZE / n

    def units(col):
        rel = f"(({col} - ({WORLD_MIN!r})) / {tile_w!r})"
        return (f"CAST(ROUND(({rel} - FLOOR({rel})) * {CLEAR_SCALE}) "
                f"AS BIGINT)")

    nn = docs_mod.N_FIXTURES
    return f"""
        WITH labels AS ({_sql_dyadic_labels_cte()}),
        u AS (
          SELECT doc_num, doc_num % {nn} AS fixture_idx,
                 {units('label_x')} AS ux, {units('label_y')} AS uy
          FROM labels
        )
        SELECT doc_num, fixture_idx,
               LEAST(ux, uy, {CLEAR_SCALE} - ux, {CLEAR_SCALE} - uy)
                   AS clearance_units
        FROM u
    """


def build_queries_ext149() -> dict:
    return {
        "word_length_histogram": q_word_length_histogram,
        "label_tile_clearance": q_label_tile_clearance,
    }


def build_oracles_ext149() -> dict:
    return {
        "word_length_histogram": SQL_WORD_LENGTH_HISTOGRAM,
        "label_tile_clearance": _sql_label_tile_clearance(),
    }
