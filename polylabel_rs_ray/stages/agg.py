"""Partial (map-side combine) groupby-aggregate.

Ray Data's ``groupby().aggregate()`` sort-shuffles every input row.  For
algebraic aggregates (sum/count/min/max/mean) the right shape at scale is:

    map_batches(per-batch pyarrow group_by)   # combine inside each batch
      -> groupby(keys).aggregate(...)          # shuffle only |groups|*|blocks| rows

which shrinks the shuffle from O(rows) to O(groups x blocks).  Results are
exactly equal for integer sums/counts/min/max; float sums change only in
association order (callers use integer-cents columns where bit-exactness
matters — see pipelines/queries.py).

Spec entries: ("sum", col, alias), ("count", None, alias),
("min", col, alias), ("max", col, alias), ("mean", col, alias).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .util import coalesce_for_shuffle, group_map, n_partitions

_PARTIAL_FUNCS = {"sum": "sum", "count": "count", "min": "min", "max": "max"}


def grouped_aggregate(ds, keys: list[str], specs: list[tuple],
                      high_cardinality: bool = False):
    """Partial-then-final groupby over a Ray Dataset; returns a Dataset
    whose columns are ``keys + [alias for each spec]``.

    ``high_cardinality=True``: the final exchange hash-partitions on
    mix(keys) % P and aggregates each partition with one Arrow C++
    group_by instead of Ray's native sort-based aggregate — the right
    shape when groups ~ rows (per-user, per-pair, per-hash keys), where
    the native aggregate's per-group merge is pathological (measured ~4 s
    per 37k-row block).  Results are identical for integer aggregates;
    float sums differ only in association order (callers needing
    bit-exactness use integer columns, as documented above).  Key columns
    must be integer or string (the partitioner hashes both)."""
    from ray.data.aggregate import Count, Max, Min, Sum

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
        elif kind in _PARTIAL_FUNCS:
            needs[alias] = (_partial(kind, col),)
        else:
            raise ValueError(kind)

    def combine(batch: pa.Table) -> pa.Table:
        # NOTE: no empty-batch early-out — pyarrow group_by on a 0-row table
        # yields a 0-row table with the FULL partial schema, so every block
        # this stage emits has identical schema (a keys-only block would
        # break the downstream groupby when a filter empties a block)
        gb = batch.group_by(keys)
        agg_spec = [(col, func) for func, col, _ in partial_aggs]
        out = gb.aggregate(agg_spec)
        cols = {}
        remaining = list(partial_aggs)
        for field in out.schema:
            if field.name in keys:
                cols[field.name] = out.column(field.name)
                continue
            func, col, name = remaining.pop(0)
            assert field.name == f"{col}_{func}", (field.name, col, func)
            cols[name] = out.column(field.name)
        return pa.table(cols)

    partial = ds.map_batches(combine, batch_format="pyarrow", zero_copy_batch=True)

    if high_cardinality:
        final_func = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
        reduced = _hash_exchange(
            partial, keys,
            [(name, final_func[func], name, None)
             for func, _col, name in partial_aggs],
        )
    else:
        final_aggs = []
        for func, _col, name in partial_aggs:
            if func in ("count", "sum"):
                final_aggs.append(Sum(name, alias_name=name))
            elif func == "min":
                final_aggs.append(Min(name, alias_name=name))
            elif func == "max":
                final_aggs.append(Max(name, alias_name=name))
        reduced = coalesce_for_shuffle(partial).groupby(keys).aggregate(*final_aggs)

    def finalize(batch: pa.Table) -> pa.Table:
        cols = {k: batch.column(k) for k in keys}
        for kind, col, alias in specs:
            parts = needs[alias]
            if kind == "count":
                cols[alias] = pc.cast(batch.column(parts[0]), pa.int64())
            elif kind == "mean":
                s = batch.column(parts[0])
                c = batch.column(parts[1])
                cols[alias] = pc.divide(pc.cast(s, pa.float64()), pc.cast(c, pa.float64()))
            else:
                cols[alias] = batch.column(parts[0])
        return pa.table(cols)

    return reduced.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


def _key_hash(batch: pa.Table, keys: list[str]):
    """Deterministic vectorized uint64 hash of the key columns: splitmix
    mixing for integer columns, polars' fixed-seed Rust hash for strings
    (Python's ``hash()`` is per-process salted — never use it here)."""
    import numpy as np

    GOLD = np.uint64(0x9E3779B97F4A7C15)
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
        h = (h * GOLD) ^ ((v * GOLD) >> np.uint64(29))
    return h


def _hash_exchange(ds, keys: list[str], aggs: list[tuple],
                   n_parts: int | None = None):
    """Hash partition on mix(keys) % P, then one Arrow C++ group_by per
    partition.  ``aggs`` entries are ``(col, pyarrow_func, alias,
    cast_to)``; the output is ``keys`` + one column per alias, cast to
    ``cast_to`` unless it is None."""
    import numpy as np

    P = n_partitions(n_parts)
    agg_spec = [(col, func) for col, func, _alias, _cast in aggs]

    def add_part(batch: pa.Table) -> pa.Table:
        part = (_key_hash(batch, keys) % np.uint64(P)).astype(np.int64)
        return batch.append_column("__gpart", pa.array(part, type=pa.int64()))

    def agg_partition(group: pa.Table) -> pa.Table:
        out = group.drop_columns(["__gpart"]).group_by(keys).aggregate(agg_spec)
        cols = {k: out.column(k) for k in keys}
        for col, func, alias, cast_to in aggs:
            c = out.column(f"{col}_{func}")
            cols[alias] = c if cast_to is None else pc.cast(c, cast_to)
        return pa.table(cols)

    tagged = ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
    return group_map(tagged, "__gpart", agg_partition)


def hash_grouped_aggregate(ds, keys: list[str], specs: list[tuple],
                           n_parts: int | None = None):
    """``grouped_aggregate`` for HIGH-CARDINALITY keys (groups ~ rows).

    The default path's final ``groupby(keys).aggregate(...)`` is Ray's
    native sort-based aggregate — the right tool when map-side combine has
    shrunk the stream to |groups| x |blocks| rows over FEW groups, but its
    per-group merge cost is pathological when nearly every row is its own
    group (measured ~4 s per 37k-row block on 1.2M-pair co-occurrence
    keys).  Here the rows go straight through the hash exchange (no
    map-side combine): the shuffle key has only P distinct values and
    each partition aggregates with ONE pyarrow C++ group_by.  Exactness
    matches grouped_aggregate for integer sums/counts/min/max (same
    kernels, different association order only for floats)."""
    aggs = []
    for kind, col, alias in specs:
        if kind == "count":
            aggs.append((keys[0], "count", alias, pa.int64()))
        elif kind in _PARTIAL_FUNCS:
            aggs.append((col, kind, alias, None))
        else:
            raise ValueError(f"hash_grouped_aggregate supports algebraic "
                             f"aggregates only, got {kind!r}")
    return _hash_exchange(ds, keys, aggs, n_parts)


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
