"""Extension batch 35: promo revenue ratio + OHLC resampling."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("lineitem", "part", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_promo_revenue_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext35 import (
        SQL_PROMO_REVENUE, q_promo_revenue,
    )

    d = q_promo_revenue(SF).to_pandas()
    o = con.execute(SQL_PROMO_REVENUE).df()
    assert len(d) == len(o) == 1
    assert d.iloc[0]["promo_rev"] == o.iloc[0]["promo_rev"]
    assert d.iloc[0]["total_rev"] == o.iloc[0]["total_rev"]
    # share is one float division of two exact ints — bit-identical
    assert d.iloc[0]["promo_share"] == o.iloc[0]["promo_share"]
    assert 0 < d.iloc[0]["promo_share"] < 100


def test_ohlc_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext35 import (
        SQL_OHLC_USER_HOUR, q_ohlc_user_hour,
    )

    d = _sorted(q_ohlc_user_hour(SF).to_pandas())
    o = con.execute(SQL_OHLC_USER_HOUR).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_ohlc_invariants_and_partitioning(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext35 import q_ohlc_user_hour

    df = q_ohlc_user_hour(SF).to_pandas()
    assert (df["low"] <= df[["open", "close", "high"]].min(axis=1)).all()
    assert (df["high"] >= df[["open", "close", "low"]].max(axis=1)).all()
    single = df[df["n_events"] == 1]
    assert len(single) > 0
    assert (single["open"] == single["close"]).all()
    assert (single["low"] == single["high"]).all()

    a = _sorted(q_ohlc_user_hour(SF, n_parts=1).to_pandas())
    b = _sorted(q_ohlc_user_hour(SF, n_parts=6).to_pandas())
    assert a.equals(b)
