"""The exchange: ``group_map`` is the engine's one groupby shuffle, and
every exchange in the package goes through it (the registry's keyed
exchange, ``pipelines/agg.py::hash_exchange``, is built on it).

Ray Data's sort-based shuffle (sort / groupby / map_groups) launches
O(input_blocks x output_blocks) exchange work; feeding it hundreds of tiny
blocks (the right granularity for the skewed label kernel) multiplies
scheduling overhead ~25x (measured: 120k-row sort 18.7s from 400 blocks vs
0.75s from 64).  ``coalesce_for_shuffle`` repartitions narrow intermediate
data down to ~one block per CPU before any wide operation, and
``group_map`` always applies it."""

from __future__ import annotations


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


def group_map(ds, key, fn):
    """Apply ``fn`` to each group of rows sharing ``key`` (Arrow tables)."""
    return coalesce_for_shuffle(ds).groupby(key).map_groups(
        fn, batch_format="pyarrow")
