"""The exchange helpers in ``stages/util.py``."""

import uuid

import numpy as np
import pyarrow as pa
import pytest


@pytest.mark.parametrize("n_parts", [1, 3, 17])
def test_hash_exchange_routes_each_key_to_one_call(ray_session, n_parts):
    """Every row of one key reaches the same ``fn`` call, every row
    arrives exactly once, and ``fn`` never sees the partition tag."""
    import ray

    from polylabel_rs_ray.stages.util import hash_exchange, hash_part

    n = 300
    rows = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64) * 7 % 41, type=pa.int64()),
        "row": pa.array(np.arange(n, dtype=np.int64)),
    })
    ds = ray.data.from_arrow(rows).repartition(5)

    def fn(group: pa.Table) -> pa.Table:
        m = group.num_rows
        return pa.table({
            "k": group.column("k"),
            "row": group.column("row"),
            "call": pa.array([uuid.uuid4().hex] * m, type=pa.string()),
            "seen": pa.array([",".join(group.column_names)] * m, type=pa.string()),
        })

    out = hash_exchange(ds, "k", fn, n_parts).to_pandas()
    assert sorted(out["row"]) == list(range(n))
    assert set(out["seen"]) == {"k,row"}
    assert (out.groupby("k")["call"].nunique() == 1).all()
    # one call per non-empty partition of the shared partitioner
    assert out["call"].nunique() == len(set(hash_part(out["k"].to_numpy(), n_parts)))
