"""Extension batch 57: convexity ratio + trailing-window revenue."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    c.execute(f"CREATE VIEW orders AS SELECT * FROM '{SF}/orders.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_convexity_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext57 import (
        _sql_convexity_stats, q_convexity_stats,
    )

    d = _sorted(q_convexity_stats(SF).to_pandas())
    o = con.execute(_sql_convexity_stats()).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_convexity_semantics(ray_session):
    """Convexity in [0, 1]; the concave L-shape sits strictly inside, the
    square is exactly 1, degenerate rings are 0."""
    from polylabel_rs_ray.pipelines.queries_ext57 import q_convexity_stats

    df = q_convexity_stats(SF).to_pandas()
    assert ((df["convexity"] >= 0) & (df["convexity"] <= 1)).all()
    byf = df.groupby("fixture_idx")["convexity"].first()
    assert (df.groupby("fixture_idx")["convexity"].nunique() == 1).all()
    vals = sorted(byf)
    assert 0.0 in vals          # degenerate fixtures
    assert 1.0 in vals          # convex square
    assert any(0.0 < v < 1.0 for v in vals)  # the concave L


def test_daily_revenue_7d_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext57 import (
        SQL_DAILY_REVENUE_7D, q_daily_revenue_7d,
    )

    d = _sorted(q_daily_revenue_7d(SF).to_pandas())
    o = con.execute(SQL_DAILY_REVENUE_7D).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_daily_revenue_7d_brute_force(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext57 import (
        WINDOW_DAYS, q_daily_revenue_7d,
    )

    df = q_daily_revenue_7d(SF).to_pandas().sort_values("day").reset_index(drop=True)
    days = df["day"].to_numpy()
    rev = df["rev_cents"].to_numpy()
    for i in range(len(df)):
        window = rev[(days > days[i] - WINDOW_DAYS) & (days <= days[i])].sum()
        assert window == df["rev_7d_cents"].iloc[i]
    # trailing sum >= the day's own revenue, equals it on the first day
    assert df["rev_7d_cents"].iloc[0] == df["rev_cents"].iloc[0]
    assert (df["rev_7d_cents"] >= df["rev_cents"]).all()
