"""Round-3 extension operators, batch 52: quadkey tile interchange.

``quadkey_tiles`` — the Bing-Maps quadkey rendering of the label tile
histogram: each morton tile id becomes its base-4 quadkey STRING (MSB
level first; digit = x_bit + 2*y_bit — exactly the engine's morton bit
pairs read top-down), the interchange format XYZ tile servers and
geo-index layers speak.  Output per occupied tile: quadkey, zoom,
parent quadkey (the prefix — quadkeys make pyramid rollups a string
truncation) and the label count.

Scale shape: the corpus-scale work is the existing tile-count pipeline
(label kernel + ONE tile exchange with map-side combine); the quadkey
string rendering runs on the BOUNDED (<= 4^res rows) tile histogram.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def q_quadkey_tiles(sf_dir: str):
    from ..config import DEFAULT_TILE_RES

    from .queries import q_tile_counts

    res = DEFAULT_TILE_RES
    mask = (1 << (2 * res)) - 1

    def render(batch: pa.Table) -> pa.Table:
        tid = batch.column("tile_id").to_numpy().astype(np.int64)
        m = tid & mask  # strip the resolution header: morton bits only
        # bounded rows (<= 4^res): per-row string assembly is O(tiles)
        shifts = [2 * (res - k) for k in range(1, res + 1)]
        digits = np.stack([(m >> s) & 3 for s in shifts], axis=1)
        qk = ["".join(str(int(d)) for d in row) for row in digits]
        return pa.table({
            "quadkey": pa.array(qk, type=pa.string()),
            "zoom": pa.array(np.full(len(m), res, np.int64), type=pa.int64()),
            "parent_quadkey": pa.array([q[:-1] for q in qk], type=pa.string()),
            "n_points": pc.cast(batch.column("n_points"), pa.int64()),
        })

    return q_tile_counts(sf_dir).map_batches(
        render, batch_format="pyarrow", zero_copy_batch=True
    )


def _sql_quadkey_tiles() -> str:
    from ..config import DEFAULT_TILE_RES
    from .queries import sql_cell_id_expr

    from .queries import _sql_dyadic_labels_cte

    res = DEFAULT_TILE_RES
    mask = (1 << (2 * res)) - 1
    tile = sql_cell_id_expr("label_x", "label_y", res)
    digits = " || ".join(
        f"CAST((m >> {2 * (res - k)}) & 3 AS VARCHAR)" for k in range(1, res + 1)
    )
    parent = " || ".join(
        f"CAST((m >> {2 * (res - k)}) & 3 AS VARCHAR)" for k in range(1, res)
    )
    return f"""
WITH labels AS ({_sql_dyadic_labels_cte()}),
tiles AS (
  SELECT ({tile}) & {mask} AS m, CAST(COUNT(*) AS BIGINT) AS n_points
  FROM labels GROUP BY 1
)
SELECT {digits} AS quadkey,
       CAST({res} AS BIGINT) AS zoom,
       {parent} AS parent_quadkey,
       n_points
FROM tiles
"""


def build_queries_ext52() -> dict:
    return {"quadkey_tiles": q_quadkey_tiles}


def build_oracles_ext52() -> dict:
    return {"quadkey_tiles": _sql_quadkey_tiles()}
