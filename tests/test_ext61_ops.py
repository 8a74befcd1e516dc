"""Extension batch 61: TPC-H Q13/Q22 shapes (outer-join histogram, anti-join)."""

import duckdb
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("customer", "orders", "nation"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_q13_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext61 import (
        SQL_CUSTOMER_ORDER_DISTRIBUTION_Q13, q_customer_order_distribution_q13,
    )

    d = q_customer_order_distribution_q13(SF)
    o = con.execute(SQL_CUSTOMER_ORDER_DISTRIBUTION_Q13).df()
    assert _norm(d).equals(_norm(o))
    # histogram masses sum to the customer count (zero bucket included)
    total = con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
    assert int(d["custdist"].sum()) == total


def test_q22_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext61 import (
        SQL_GLOBAL_SALES_OPPORTUNITY_Q22, q_global_sales_opportunity_q22,
    )

    d = q_global_sales_opportunity_q22(SF).to_pandas()
    o = con.execute(SQL_GLOBAL_SALES_OPPORTUNITY_Q22).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_q22_partition_invariance(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext61 import (
        q_global_sales_opportunity_q22,
    )

    a = _norm(q_global_sales_opportunity_q22(SF, n_parts=2).to_pandas())
    b = _norm(q_global_sales_opportunity_q22(SF, n_parts=11).to_pandas())
    assert a.equals(b)


def test_anti_join_unit():
    from polylabel_rs_ray.pipelines.queries_ext61 import _anti_join

    group = pa.table({
        "__side": pa.array([0, 0, 0, 1, 1], type=pa.int64()),
        "k": pa.array([1, 2, 3, 2, 2], type=pa.int64()),
        "v": pa.array([10, 20, 30, None, None], type=pa.int64()),
    })
    out = _anti_join(group, "k")
    assert out.column("k").to_pylist() == [1, 3]
    assert out.column("v").to_pylist() == [10, 30]


def test_anti_join_empty_exclusion_keeps_all():
    from polylabel_rs_ray.pipelines.queries_ext61 import _anti_join

    group = pa.table({
        "__side": pa.array([0, 0], type=pa.int64()),
        "k": pa.array([4, 5], type=pa.int64()),
        "v": pa.array([1, 2], type=pa.int64()),
    })
    out = _anti_join(group, "k")
    assert out.column("k").to_pylist() == [4, 5]
