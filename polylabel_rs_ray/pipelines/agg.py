"""The registry's keyed exchange and grouped aggregation.

``hash_exchange`` is the one keyed exchange: it tags each row with a
hash of its key columns mod P and hands each partition's rows to ``fn``
through the engine's ``stages.util.group_map``.  ``grouped_aggregate``
runs on it with GeoBlocks' pre-aggregate-then-merge shape for algebraic
aggregates (sum/count/min/max/mean):

    map_batches(per-batch pyarrow group_by)   # combine inside each batch
      -> hash_exchange on mix(keys) % P        # |groups| x |blocks| rows
      -> one pyarrow group_by per partition    # merge the partials

which shrinks the shuffle from O(rows) to O(groups x blocks) and merges
each partition with one vectorised Arrow C++ group_by, never a per-group
Python merge.  Results are exactly equal for integer sums/counts/min/max;
float sums change only in association order (callers use integer-cents
columns where bit-exactness matters — see pipelines/queries.py).

Spec entries: ("sum", col, alias), ("count", None, alias),
("min", col, alias), ("max", col, alias), ("mean", col, alias).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map, shuffle_blocks

GOLD64 = np.uint64(0x9E3779B97F4A7C15)
_TAG = "__xpart"

_MERGE_FUNC = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def grouped_aggregate(ds, keys: list[str], specs: list[tuple],
                      n_parts: int | None = None):
    """Partial-then-final groupby over a Ray Dataset; returns a Dataset
    whose columns are ``keys + [alias for each spec]``, in no particular
    row order.

    Each batch is combined map-side with one Arrow group_by; the partials
    are hash-partitioned on mix(keys) % ``n_partitions(n_parts)`` and
    each partition is merged with one Arrow group_by.  Key columns must
    be integer or string, or another type polars can hash."""
    # dedupe identical partial computations (e.g. count + mean both need a
    # group count) — one partial column can serve several final aliases
    partial_aggs: list[tuple[str, str, str]] = []  # (pa_func, col, partial_name)
    partial_of: dict[tuple[str, str], str] = {}
    needs: dict[str, tuple[str, ...]] = {}  # alias -> partial names used

    def _partial(func: str, col: str) -> str:
        key = (func, col)
        if key not in partial_of:
            name = f"__p{len(partial_of)}_{func}"
            partial_of[key] = name
            partial_aggs.append((func, col, name))
        return partial_of[key]

    for kind, col, alias in specs:
        if kind == "count":
            needs[alias] = (_partial("count", keys[0]),)
        elif kind == "mean":
            needs[alias] = (_partial("sum", col), _partial("count", keys[0]))
        elif kind in _MERGE_FUNC:
            needs[alias] = (_partial(kind, col),)
        else:
            raise ValueError(kind)

    def combine(batch: pa.Table) -> pa.Table:
        # NOTE: no empty-batch early-out — pyarrow group_by on a 0-row table
        # yields a 0-row table with the FULL partial schema, so every block
        # this stage emits has identical schema (a keys-only block would
        # break the downstream groupby when a filter empties a block)
        out = batch.group_by(keys).aggregate(
            [(col, func) for func, col, _ in partial_aggs])
        cols = {k: out.column(k) for k in keys}
        for func, col, name in partial_aggs:
            cols[name] = out.column(f"{col}_{func}")
        return pa.table(cols)

    def merge(part: pa.Table) -> pa.Table:
        out = part.group_by(keys).aggregate(
            [(name, _MERGE_FUNC[func]) for func, _col, name in partial_aggs])
        merged = {name: out.column(f"{name}_{_MERGE_FUNC[func]}")
                  for func, _col, name in partial_aggs}
        cols = {k: out.column(k) for k in keys}
        for kind, col, alias in specs:
            parts = [merged[p] for p in needs[alias]]
            if kind == "count":
                cols[alias] = pc.cast(parts[0], pa.int64())
            elif kind == "mean":
                cols[alias] = pc.divide(pc.cast(parts[0], pa.float64()),
                                        pc.cast(parts[1], pa.float64()))
            else:
                cols[alias] = parts[0]
        return pa.table(cols)

    partial = ds.map_batches(combine, batch_format="pyarrow", zero_copy_batch=True)
    return hash_exchange(partial, keys, merge, n_parts)


def hash_part(ids: np.ndarray, n_parts: int) -> np.ndarray:
    """Deterministic hash partitioner for int64 ids, for call sites that
    tag their own ``part`` column (and oracle SQL that replays it)."""
    u = np.asarray(ids).astype(np.uint64)
    return ((u * GOLD64) >> np.uint64(33)).astype(np.int64) % n_parts


def n_partitions(n_parts: int | None) -> int:
    return int(n_parts or min(32, shuffle_blocks()))


def _key_hash(batch: pa.Table, keys: list[str]):
    """Deterministic vectorized uint64 hash of the key columns: splitmix
    mixing for integer columns, polars' fixed-seed Rust hash for strings
    (Python's ``hash()`` is per-process salted — never use it here)."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for k in keys:
        col = batch.column(k)
        if pa.types.is_integer(col.type):
            v = col.to_numpy().astype(np.uint64)
        else:
            import polars as pl

            v = pl.from_arrow(
                col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            ).hash(seed=0).to_numpy().astype(np.uint64)
        h = (h * GOLD64) ^ ((v * GOLD64) >> np.uint64(29))
    return h


def hash_exchange(ds, keys: str | list[str], fn, n_parts: int | None = None):
    """Hash-partition rows on their key into ``n_partitions(n_parts)``
    partitions and apply ``fn`` to each partition's rows as one Arrow
    table; every row of one key reaches the same call, without the
    partition tag.  ``keys`` is one column name or a list of them.  A
    single integer key is partitioned by ``hash_part``, any other key by
    mix(keys) % P."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    P = n_partitions(n_parts)

    def tag(batch: pa.Table) -> pa.Table:
        col = batch.column(keys[0])
        if len(keys) == 1 and pa.types.is_integer(col.type):
            part = hash_part(col.to_numpy(), P)
        else:
            part = (_key_hash(batch, keys) % np.uint64(P)).astype(np.int64)
        return batch.append_column(_TAG, pa.array(part, type=pa.int64()))

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    out = group_map(tagged, _TAG, lambda g: fn(g.drop_columns([_TAG])))
    # On a 1-CPU Ray, Ray Data's per-operator CPU reservation stalls a
    # union whose first input is an exchange and whose second reads
    # parquet: read_parquet(customer).repartition(8)
    # .union(read_parquet(supplier)).count() was still running at 40 s,
    # and finished in 2-3 s with the reservation off on the first input.
    # The union runs under its first input's context, so the flag is set
    # on this Dataset's own context (shared with the Datasets it derives
    # from), never on the process-global one.
    out.context.op_resource_reservation_enabled = False
    return out


def distinct_values(path: str, col: str) -> list:
    """Distributed distinct of one parquet column, for DOMAIN DISCOVERY:
    per-batch ``pyarrow.compute.unique`` partials (each block contributes
    at most |domain| rows), one bounded hash aggregate, then a driver
    collect of the tiny domain.  Replaces driver-side full-column scans
    (``pq.read_table(path, columns=[col])``) — the domain is bounded but
    a fact-table column at 10^12 rows is not.  Returns the sorted values.
    """
    import ray

    ds = ray.data.read_parquet(path, columns=[col])

    def uniq(batch: pa.Table) -> pa.Table:
        c = batch.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return pa.table({col: pc.unique(c)})

    out = grouped_aggregate(
        ds.map_batches(uniq, batch_format="pyarrow", zero_copy_batch=True),
        [col], [("count", None, "_n")],
    ).to_pandas()
    return sorted(out[col].tolist())
