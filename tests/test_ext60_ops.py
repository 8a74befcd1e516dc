"""Extension batch 60: TPC-H Q3/Q5 join shapes."""

import duckdb
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation", "region"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_q3_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext60 import (
        SQL_SHIPPING_PRIORITY_Q3, q_shipping_priority_q3,
    )

    d = q_shipping_priority_q3(SF).to_pandas()
    o = con.execute(SQL_SHIPPING_PRIORITY_Q3).df()
    assert len(d) == len(o) == 10
    assert _norm(d).equals(_norm(o))
    # top-10 is strictly ordered by revenue (desc) with orderkey tiebreak
    rev = d["revenue_micro"].to_numpy()
    assert (rev[:-1] >= rev[1:]).all()


def test_q5_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext60 import (
        SQL_LOCAL_SUPPLIER_VOLUME_Q5, q_local_supplier_volume_q5,
    )

    d = q_local_supplier_volume_q5(SF).to_pandas()
    o = con.execute(SQL_LOCAL_SUPPLIER_VOLUME_Q5).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_q5_partition_invariance(ray_session):
    """Result is independent of the hash-exchange partition count."""
    from polylabel_rs_ray.pipelines.queries_ext60 import q_local_supplier_volume_q5

    a = _norm(q_local_supplier_volume_q5(SF, n_parts=2).to_pandas())
    b = _norm(q_local_supplier_volume_q5(SF, n_parts=13).to_pandas())
    assert a.equals(b)


def test_attach_inner_drops_unmatched_facts():
    """_attach_inner is an INNER join: facts with no dim row vanish; matched
    facts carry the dim payload."""
    from polylabel_rs_ray.pipelines.queries_ext60 import _attach_inner

    group = pa.table({
        "__side": pa.array([0, 0, 0, 1, 1], type=pa.int64()),
        "k": pa.array([1, 2, 3, 2, 3], type=pa.int64()),
        "fact_v": pa.array([10, 20, 30, None, None], type=pa.int64()),
        "dim_v": pa.array([None, None, None, 200, 300], type=pa.int64()),
    })
    out = _attach_inner(group, "k")
    assert out.column("k").to_pylist() == [2, 3]
    assert out.column("fact_v").to_pylist() == [20, 30]
    assert out.column("dim_v").to_pylist() == [200, 300]


def test_attach_inner_empty_dim_side():
    from polylabel_rs_ray.pipelines.queries_ext60 import _attach_inner

    group = pa.table({
        "__side": pa.array([0, 0], type=pa.int64()),
        "k": pa.array([1, 2], type=pa.int64()),
        "fact_v": pa.array([10, 20], type=pa.int64()),
        "dim_v": pa.array([None, None], type=pa.int64()),
    })
    out = _attach_inner(group, "k")
    assert out.num_rows == 0
    assert out.column_names == ["k", "fact_v", "dim_v"]
