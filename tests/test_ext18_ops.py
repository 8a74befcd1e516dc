"""Extension operators batch 19 (queries_ext18): weighted median and
grouped exact regression slope."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _compare(q, sql, con):
    res = q(SF)
    d = res.to_pandas() if hasattr(res, "to_pandas") else res
    if isinstance(d, pa.Table):
        d = d.to_pandas()
    o = con.execute(sql).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b), sql
    return a


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    return c


def test_weighted_median_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext18 import (
        SQL_WEIGHTED_MEDIAN_PRICE,
        q_weighted_median_price,
    )

    m = _compare(q_weighted_median_price, SQL_WEIGHTED_MEDIAN_PRICE, con)
    med = int(m["wmedian_cents"].iloc[0])
    W = int(m["total_weight"].iloc[0])
    # defining property: weight at-or-below >= ceil(W/2); strictly-below < ceil(W/2)
    below, at_or_below = con.execute(
        "SELECT SUM(CASE WHEN ROUND(l_extendedprice*100) < ? THEN l_quantity "
        "ELSE 0 END), SUM(CASE WHEN ROUND(l_extendedprice*100) <= ? THEN "
        "l_quantity ELSE 0 END) FROM lineitem",
        [med, med],
    ).fetchone()
    half = (W + 1) // 2
    assert at_or_below >= half and below < half


def test_weighted_median_brute_force_small(ray_session):
    # weighted median on a crafted tiny table == brute-force expansion
    from polylabel_rs_ray.pipelines import queries_ext18 as m
    import pyarrow.parquet as pq
    import tempfile, os

    rng = np.random.default_rng(21)
    c = rng.integers(100, 999, 200)
    w = rng.integers(1, 9, 200)
    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table({
            "l_extendedprice": pa.array(c / 100.0, type=pa.float64()),
            "l_quantity": pa.array(w.astype(np.float64)),
        }),
        os.path.join(d, "lineitem.parquet"),
    )
    got = m.q_weighted_median_price(d).to_pandas()["wmedian_cents"].iloc[0]
    expanded = np.sort(np.repeat(c, w))
    want = int(expanded[(len(expanded) + 1) // 2 - 1])
    assert got == want


def test_slope_by_flag_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext18 import (
        SQL_PRICE_DISCOUNT_SLOPE_BY_FLAG,
        q_price_discount_slope_by_flag,
    )

    s = _compare(q_price_discount_slope_by_flag, SQL_PRICE_DISCOUNT_SLOPE_BY_FLAG, con)
    # slope agrees with numpy polyfit per group within float tolerance
    for _, r in s.iterrows():
        df = con.execute(
            "SELECT ROUND(l_extendedprice*100) x, ROUND(l_discount*100) y "
            "FROM lineitem WHERE l_returnflag = ?",
            [r["l_returnflag"]],
        ).df()
        want = np.polyfit(df["x"], df["y"], 1)[0]
        assert abs(r["slope_micro"] / 1e6 - want) < 1e-4
