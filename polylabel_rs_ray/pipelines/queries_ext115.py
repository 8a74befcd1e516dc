"""Round-3 extension operators, batch 115: grid DBSCAN + letter
frequency spectrum.

``dbscan_tile_clusters`` — density-based clustering of the label points
on the ``DEFAULT_TILE_RES`` lattice (the grid-DBSCAN formulation: a
tile is CORE iff it holds ≥ minPts labels; clusters are the 8-connected
components of core tiles; cluster id = the smallest ``ix·n+iy`` cell in
the component).  The corpus-scale work (read → polylabel → tile
binning) is the distributed label pipeline with map-side-combined
per-block histograms; the component fold runs on the driver over the
BOUNDED ≤ n² histogram (n = 32 — the morans_i_tiles convention).  The
oracle replays the components with a recursive-CTE min-label
propagation over the same bounded core set.

``letter_frequency_matrix`` — per-(lang, letter) occurrence counts over
the corpus, all 26 letters emitted per language including zeros.  The
per-batch kernel reads the Arrow string column's raw data buffer
(ASCII corpus, asserted upstream) and folds ONE ``np.bincount`` per
present language over the byte range — zero-copy, no per-row loop; the
partials are bounded (langs × 26) rows per block through the map-side
combine.  Exact integers everywhere.

Reference anchors: tiling/clustering metrology + text statistics
surface (SURVEY.md §2.3/§2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MINPTS = 3


# --------------------------------------------------------------------------
# dbscan_tile_clusters
# --------------------------------------------------------------------------


def _tile_hist(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import _dyadic_labeled
    from .queries_ext41 import _grid_params

    n, wmin, ts = _grid_params()

    def bins(batch: pa.Table) -> pa.Table:
        x = batch.column("label_x").to_numpy()
        y = batch.column("label_y").to_numpy()
        ix = np.clip(np.floor((x - wmin) / ts).astype(np.int64), 0, n - 1)
        iy = np.clip(np.floor((y - wmin) / ts).astype(np.int64), 0, n - 1)
        t = pa.table({"ix": pa.array(ix), "iy": pa.array(iy)})
        out = t.group_by(["ix", "iy"]).aggregate([("ix", "count")])
        return pa.table({
            "ix": out.column("ix"), "iy": out.column("iy"),
            "c": out.column("ix_count"),
        })

    hist = grouped_aggregate(
        _dyadic_labeled(sf_dir).map_batches(
            bins, batch_format="pyarrow", zero_copy_batch=True),
        ["ix", "iy"], [("sum", "c", "c")],
    ).to_pandas()  # bounded: <= n^2 rows
    return n, hist


def q_dbscan_tile_clusters(sf_dir: str):
    import ray
    n, hist = _tile_hist(sf_dir)
    core = hist[hist["c"] >= MINPTS]
    cells = {(int(r.ix), int(r.iy)): int(r.c) for r in core.itertuples()}
    # union-find over the bounded core set (8-connectivity)
    parent = {cell: cell for cell in cells}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (ix, iy) in cells:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nb = (ix + dx, iy + dy)
                if nb != (ix, iy) and nb in cells:
                    ra, rb = find((ix, iy)), find(nb)
                    if ra != rb:
                        parent[rb] = ra
    comps: dict[tuple, list[tuple]] = {}
    for cell in cells:
        comps.setdefault(find(cell), []).append(cell)
    rows = {"cluster_id": [], "n_cells": [], "n_points": []}
    for members in comps.values():
        rows["cluster_id"].append(
            min(ix * n + iy for ix, iy in members))
        rows["n_cells"].append(len(members))
        rows["n_points"].append(sum(cells[m] for m in members))
    return ray.data.from_arrow(pa.table({
        "cluster_id": pa.array(rows["cluster_id"], type=pa.int64()),
        "n_cells": pa.array(rows["n_cells"], type=pa.int64()),
        "n_points": pa.array(rows["n_points"], type=pa.int64()),
    }))


def _sql_dbscan_tile_clusters() -> str:
    from .queries import _sql_dyadic_labels_cte
    from .queries_ext41 import _grid_params

    n, wmin, ts = _grid_params()

    def grid(c):
        return (f"LEAST({n - 1}, GREATEST(0, "
                f"CAST(FLOOR(({c} - ({wmin!r})) / {ts!r}) AS BIGINT)))")

    return f"""
        WITH RECURSIVE labels AS ({_sql_dyadic_labels_cte()}),
        hist AS (
            SELECT {grid('label_x')} AS ix, {grid('label_y')} AS iy,
                   COUNT(*) AS c
            FROM labels GROUP BY 1, 2
        ),
        core AS (SELECT ix, iy, c FROM hist WHERE c >= {MINPTS}),
        edges AS (
            SELECT a.ix AS ix1, a.iy AS iy1, b.ix AS ix2, b.iy AS iy2
            FROM core a JOIN core b
              ON abs(a.ix - b.ix) <= 1 AND abs(a.iy - b.iy) <= 1
             AND NOT (a.ix = b.ix AND a.iy = b.iy)
        ),
        reach(ix, iy, lab) AS (
            SELECT ix, iy, ix * {n} + iy FROM core
            UNION
            SELECT e.ix2, e.iy2, r.lab
            FROM reach r JOIN edges e ON e.ix1 = r.ix AND e.iy1 = r.iy
        ),
        comp AS (
            SELECT ix, iy, MIN(lab) AS cid FROM reach GROUP BY ix, iy
        )
        SELECT CAST(cid AS BIGINT) AS cluster_id,
               CAST(COUNT(*) AS BIGINT) AS n_cells,
               CAST(SUM(core.c) AS BIGINT) AS n_points
        FROM comp JOIN core USING (ix, iy)
        GROUP BY cid
    """


# --------------------------------------------------------------------------
# letter_frequency_matrix
# --------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def q_letter_frequency_matrix(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang")
        langs = (langs.combine_chunks()
                 if isinstance(langs, pa.ChunkedArray) else langs)
        text = batch.column("text")
        text = (text.combine_chunks()
                if isinstance(text, pa.ChunkedArray) else text)
        # zero-copy byte view of the whole string column + per-row offsets
        if pa.types.is_large_string(text.type):
            text = pc.cast(text, pa.string())
        buf_off = np.frombuffer(text.buffers()[1], dtype=np.int32)
        off = buf_off[text.offset: text.offset + len(text) + 1]
        data = np.frombuffer(text.buffers()[2], dtype=np.uint8)
        if len(text) == 0:
            return pa.table({
                "lang": pa.array([], type=pa.string()),
                "letter": pa.array([], type=pa.string()),
                "c": pa.array([], type=pa.int64()),
            })
        # one joint bincount over (lang_code, byte): label every byte of
        # the contiguous values buffer with its row's lang code, then
        # fold the whole batch in a single vectorized pass (no row loop)
        enc = langs.dictionary_encode()
        lang_codes = enc.indices.to_numpy().astype(np.int64)
        lang_vals = enc.dictionary.to_pylist()
        lengths = np.diff(off.astype(np.int64))
        byte_lang = np.repeat(lang_codes, lengths)
        joint = byte_lang * 256 + data[off[0]: off[-1]].astype(np.int64)
        hist = np.bincount(joint, minlength=len(lang_vals) * 256)
        hist = hist.reshape(len(lang_vals), 256)
        letter_cols = np.array([ord(ch) for ch in _LETTERS])
        sub = hist[:, letter_cols]  # (n_langs, 26)
        n_langs = len(lang_vals)
        return pa.table({
            "lang": pa.array(np.repeat(np.asarray(lang_vals, dtype=object),
                                       len(_LETTERS)), type=pa.string()),
            "letter": pa.array(list(_LETTERS) * n_langs, type=pa.string()),
            "c": pa.array(sub.ravel(), type=pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "letter"], [("sum", "c", "c")],
    )


def _sql_letter_frequency_matrix() -> str:
    letters = ", ".join(f"'{c}'" for c in _LETTERS)
    return f"""
        SELECT d.lang, l.letter,
               CAST(SUM(length(d.text) -
                        length(replace(d.text, l.letter, ''))) AS BIGINT)
                   AS c
        FROM documents d
        CROSS JOIN (SELECT unnest([{letters}]) AS letter) l
        GROUP BY d.lang, l.letter
    """


def build_queries_ext115() -> dict:
    return {
        "dbscan_tile_clusters": q_dbscan_tile_clusters,
        "letter_frequency_matrix": q_letter_frequency_matrix,
    }


def build_oracles_ext115() -> dict:
    return {
        "dbscan_tile_clusters": _sql_dbscan_tile_clusters(),
        "letter_frequency_matrix": _sql_letter_frequency_matrix(),
    }
