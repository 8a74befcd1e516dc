"""Round-3 extension operators, batch 107: geohash interchange + language
distribution overlap.

``geohash_cells`` — the geohash (base32) rendering of the label tile
histogram, completing the cell-interchange family (morton ids, Bing
quadkeys ext52, Hilbert ext80, hex bins ext66): the tile's x/y bits
re-interleave LONGITUDE-FIRST (geohash's odd/even asymmetry — quadkey
and morton are lat-first pairs) and pack 5 bits per character of the
standard base32 alphabet.  At DEFAULT_TILE_RES=5 the 10 bits make
exactly two characters, so the mapping is bijective per tile; the
one-character prefix is the enclosing coarse geohash cell (prefix
truncation IS the pyramid rollup, as with quadkeys).  Corpus-scale
work is the existing tile-count pipeline; the string render runs on
the bounded tile histogram.  The oracle replays the bit surgery and
the alphabet lookup with integer arithmetic + substr.

``lang_histogram_intersection`` — pairwise similarity of language word
distributions by histogram intersection Σ_w min(p_w, q_w), kept EXACT:
with per-lang totals n_a, n_b the sum is the rational
``Σ_w min(c_aw·n_b, c_bw·n_a) / (n_a·n_b)`` — integer cross products,
no float accumulation.  The (lang, word) count table is bounded (langs
x the fixed synthetic vocabulary) and rides one map-side-combined
exchange; the pairwise fold is a driver loop over that bounded table.
Magnitudes: c·n ≤ 5e12 at sf0.1 — int64-safe through ~sf10.

Reference anchors: engine-level tiling + text surface (SURVEY.md
§2.3/§2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def q_geohash_cells(sf_dir: str):
    from ..config import DEFAULT_TILE_RES

    from .queries import q_tile_counts

    res = DEFAULT_TILE_RES
    assert (2 * res) % 5 == 0, "geohash chars need 5-bit alignment"
    n_chars = (2 * res) // 5
    mask = (1 << (2 * res)) - 1

    def render(batch: pa.Table) -> pa.Table:
        tid = batch.column("tile_id").to_numpy().astype(np.int64)
        m = tid & mask  # morton bits: per level, digit = x_bit + 2*y_bit
        g = np.zeros(len(m), dtype=np.int64)
        # re-interleave lon-first from the MSB level down
        for k in range(1, res + 1):
            x = (m >> (2 * (res - k))) & 1
            y = (m >> (2 * (res - k) + 1)) & 1
            g = (g << 2) | (x << 1) | y
        chars = []
        for c in range(n_chars):
            shift = 5 * (n_chars - 1 - c)
            chars.append((g >> shift) & 31)
        gh = ["".join(GEOHASH32[int(chars[c][i])] for c in range(n_chars))
              for i in range(len(m))]  # bounded rows (<= 4^res)
        return pa.table({
            "geohash": pa.array(gh, type=pa.string()),
            "geohash_parent": pa.array([s[:-1] for s in gh],
                                       type=pa.string()),
            "n_points": pc.cast(batch.column("n_points"), pa.int64()),
        })

    return q_tile_counts(sf_dir).map_batches(
        render, batch_format="pyarrow", zero_copy_batch=True)


def _sql_geohash_cells() -> str:
    from ..config import DEFAULT_TILE_RES
    from .queries import sql_cell_id_expr

    from .queries import _sql_dyadic_labels_cte

    res = DEFAULT_TILE_RES
    n_chars = (2 * res) // 5
    mask = (1 << (2 * res)) - 1
    tile = sql_cell_id_expr("label_x", "label_y", res)
    # lon-first interleave: g accumulates (x,y) pairs MSB level first
    terms = []
    for k in range(1, res + 1):
        shift_pair = 2 * (res - k)
        terms.append(f"(((m >> {shift_pair}) & 1) << {2 * (res - k) + 1})")
        terms.append(f"(((m >> {shift_pair + 1}) & 1) << {2 * (res - k)})")
    g_expr = " + ".join(terms)
    char = " || ".join(
        f"substr('{GEOHASH32}', CAST(((g >> {5 * (n_chars - 1 - c)}) & 31) "
        f"AS INTEGER) + 1, 1)"
        for c in range(n_chars))
    parent = " || ".join(
        f"substr('{GEOHASH32}', CAST(((g >> {5 * (n_chars - 1 - c)}) & 31) "
        f"AS INTEGER) + 1, 1)"
        for c in range(n_chars - 1))
    return f"""
WITH labels AS ({_sql_dyadic_labels_cte()}),
tiles AS (
  SELECT ({tile}) & {mask} AS m, CAST(COUNT(*) AS BIGINT) AS n_points
  FROM labels GROUP BY 1
),
bits AS (SELECT {g_expr} AS g, n_points FROM tiles)
SELECT {char} AS geohash,
       {parent} AS geohash_parent,
       n_points
FROM bits
"""


def q_lang_histogram_intersection(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries_ext5 import _word_lists

    import ray

    def lang_word_counts(batch: pa.Table) -> pa.Table:
        flat, counts, _ = _word_lists(batch)
        langs = pa.array(
            np.repeat(batch.column("lang").to_numpy(zero_copy_only=False),
                      counts))
        g = pa.table({
            "lang": langs, "word": flat,
            "one": pa.array(np.ones(len(flat), np.int64)),
        }).group_by(["lang", "word"]).aggregate([("one", "sum")])
        return pa.table({
            "lang": g.column("lang"), "word": g.column("word"),
            "c": g.column("one_sum"),
        })

    cells = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["lang", "text"])
        .map_batches(lang_word_counts, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["lang", "word"], [("sum", "c", "c")],
    ).to_pandas()  # bounded: langs x fixed vocabulary

    totals = cells.groupby("lang")["c"].sum().to_dict()
    by_lang = {
        lang: dict(zip(sub["word"], sub["c"].astype(int)))
        for lang, sub in cells.groupby("lang")
    }
    langs = sorted(totals)
    rows = {"lang_a": [], "lang_b": [], "num": [], "den": [],
            "overlap": []}
    for i, la in enumerate(langs):
        for lb in langs[i + 1:]:
            na, nb = int(totals[la]), int(totals[lb])
            ca, cb = by_lang[la], by_lang[lb]
            num = sum(min(ca[w] * nb, cb[w] * na)
                      for w in ca.keys() & cb.keys())
            rows["lang_a"].append(la)
            rows["lang_b"].append(lb)
            rows["num"].append(num)
            rows["den"].append(na * nb)
            # mirror the SQL's double-cast-then-divide (exact below 2^53)
            rows["overlap"].append(float(num) / float(na * nb))
    return pa.table({
        "lang_a": pa.array(rows["lang_a"], type=pa.string()),
        "lang_b": pa.array(rows["lang_b"], type=pa.string()),
        "num": pa.array(rows["num"], type=pa.int64()),
        "den": pa.array(rows["den"], type=pa.int64()),
        "overlap": pa.array(rows["overlap"], type=pa.float64()),
    })


SQL_LANG_HISTOGRAM_INTERSECTION = """
WITH wc AS (
  SELECT lang, UNNEST(string_split(text, ' ')) AS w FROM documents
),
cnt AS (SELECT lang, w, CAST(COUNT(*) AS BIGINT) AS c FROM wc GROUP BY 1, 2),
tot AS (SELECT lang, CAST(SUM(c) AS BIGINT) AS n FROM cnt GROUP BY 1)
SELECT a.lang AS lang_a, b.lang AS lang_b,
       CAST(SUM(LEAST(ca.c * b.n, cb.c * a.n)) AS BIGINT) AS num,
       a.n * b.n AS den,
       CAST(SUM(LEAST(ca.c * b.n, cb.c * a.n)) AS DOUBLE)
         / CAST(a.n * b.n AS DOUBLE) AS overlap
FROM tot a JOIN tot b ON a.lang < b.lang
JOIN cnt ca ON ca.lang = a.lang
JOIN cnt cb ON cb.lang = b.lang AND cb.w = ca.w
GROUP BY 1, 2, a.n, b.n
ORDER BY 1, 2
"""


def build_queries_ext107() -> dict:
    return {
        "geohash_cells": q_geohash_cells,
        "lang_histogram_intersection": q_lang_histogram_intersection,
    }


def build_oracles_ext107() -> dict:
    return {
        "geohash_cells": _sql_geohash_cells(),
        "lang_histogram_intersection": SQL_LANG_HISTOGRAM_INTERSECTION,
    }
