"""The exchange: every groupby shuffle in the package goes through here.

Ray Data's sort-based shuffle (sort / groupby / map_groups) launches
O(input_blocks x output_blocks) exchange work; feeding it hundreds of tiny
blocks (the right granularity for the skewed label kernel) multiplies
scheduling overhead ~25x (measured: 120k-row sort 18.7s from 400 blocks vs
0.75s from 64).  ``coalesce_for_shuffle`` repartitions narrow intermediate
data down to ~one block per CPU before any wide operation, and
``group_map`` / ``hash_exchange`` always apply it."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

GOLD64 = np.uint64(0x9E3779B97F4A7C15)
_TAG = "__xpart"


def cluster_cpus() -> int:
    """The Ray cluster's CPU count, or 32 without a Ray session."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", 32)))
    except Exception:  # noqa: BLE001
        pass
    return 32


def shuffle_blocks() -> int:
    return max(8, cluster_cpus())


def coalesce_for_shuffle(ds):
    return ds.repartition(shuffle_blocks())


def hash_part(ids: np.ndarray, n_parts: int) -> np.ndarray:
    """Deterministic hash partitioner for int64 ids — the shared partitioner
    every stage that must co-locate rows by doc_id agrees on."""
    u = np.asarray(ids).astype(np.uint64)
    return ((u * GOLD64) >> np.uint64(33)).astype(np.int64) % n_parts


def n_partitions(n_parts: int | None) -> int:
    return int(n_parts or min(32, shuffle_blocks()))


def group_map(ds, key, fn):
    """Apply ``fn`` to each group of rows sharing ``key`` (Arrow tables)."""
    return coalesce_for_shuffle(ds).groupby(key).map_groups(
        fn, batch_format="pyarrow")


def hash_exchange(ds, key: str, fn, n_parts: int | None = None):
    """Hash-partition rows on the integer column ``key`` into
    ``n_partitions(n_parts)`` partitions and apply ``fn`` to each
    partition's rows; every row of one key reaches the same call."""
    P = n_partitions(n_parts)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column(key).to_numpy()
        return batch.append_column(_TAG, pa.array(hash_part(ids, P), type=pa.int64()))

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return group_map(tagged, _TAG, lambda g: fn(g.drop_columns([_TAG])))
