"""Shuffle hygiene helpers.

Ray Data's sort-based shuffle (sort / groupby / map_groups) launches
O(input_blocks x output_blocks) exchange work; feeding it hundreds of tiny
blocks (the right granularity for the skewed label kernel) multiplies
scheduling overhead ~25x (measured: 120k-row sort 18.7s from 400 blocks vs
0.75s from 64).  ``coalesce_for_shuffle`` repartitions narrow intermediate
data down to ~one block per CPU before any wide operation."""

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


def coalesce_for_shuffle(ds, target: int | None = None):
    return ds.repartition(target or shuffle_blocks())

