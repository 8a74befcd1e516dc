"""The registry's keyed exchange and grouped aggregate in
``pipelines/agg.py``, both built on the engine's ``stages.util.group_map``."""

import uuid

import numpy as np
import pyarrow as pa
import pytest


@pytest.mark.parametrize("n_parts", [1, 3, 17])
def test_hash_exchange_routes_each_key_to_one_call(ray_session, n_parts):
    """Every row of one key reaches the same ``fn`` call, every row
    arrives exactly once, and ``fn`` never sees the partition tag."""
    import ray

    from polylabel_rs_ray.pipelines.agg import hash_exchange, hash_part

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
    # one integer key: one call per non-empty partition of ``hash_part``
    assert out["call"].nunique() == len(set(hash_part(out["k"].to_numpy(), n_parts)))


def _agg_input(case: str) -> tuple[pa.Table, list[str]]:
    n = 600
    i = np.arange(n, dtype=np.int64)
    v = pa.array((i * 37) % 101 - 50, type=pa.int64())
    if case == "few_groups":
        return pa.table({"k": pa.array(i % 4), "v": v}), ["k"]
    if case == "unique_keys":
        return pa.table({"k": pa.array(i[::-1]), "v": v}), ["k"]
    s = pa.array([f"s{j % 5}" for j in i], type=pa.string())
    return pa.table({"s": s, "k": pa.array(i % 3), "v": v}), ["s", "k"]


@pytest.mark.parametrize("n_parts", [1, 3])
@pytest.mark.parametrize("case", ["few_groups", "unique_keys", "string_pair_key"])
def test_grouped_aggregate_matches_one_arrow_group_by(ray_session, case, n_parts):
    """Combine map-side, exchange, merge: the result equals one Arrow
    group_by over the whole input, for every spec kind."""
    import ray

    from polylabel_rs_ray.pipelines.agg import grouped_aggregate

    t, keys = _agg_input(case)
    specs = [("count", None, "n"), ("sum", "v", "s_v"), ("mean", "v", "m_v"),
             ("min", "v", "lo"), ("max", "v", "hi")]
    ds = ray.data.from_arrow(t).repartition(4)
    got = grouped_aggregate(ds, keys, specs, n_parts).to_pandas()

    ref = t.group_by(keys).aggregate(
        [(keys[0], "count"), ("v", "sum"), ("v", "mean"), ("v", "min"), ("v", "max")])
    exp = ref.rename_columns(
        [{f"{keys[0]}_count": "n", "v_sum": "s_v", "v_mean": "m_v", "v_min": "lo",
          "v_max": "hi"}.get(c, c) for c in ref.column_names]).to_pandas()

    assert list(got.columns) == keys + ["n", "s_v", "m_v", "lo", "hi"]
    got = got.sort_values(keys).reset_index(drop=True)
    exp = exp[list(got.columns)].sort_values(keys).reset_index(drop=True)
    assert len(got) == len(exp)
    for col in keys + ["n", "s_v", "lo", "hi"]:
        assert got[col].tolist() == exp[col].tolist(), col
    assert str(got["n"].dtype) == "int64"
    np.testing.assert_allclose(got["m_v"], exp["m_v"], rtol=1e-12)
