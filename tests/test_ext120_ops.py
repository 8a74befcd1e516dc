"""Extension batch 120: Mann-Kendall trend + hourly cross-correlation."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_mann_kendall_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext120 import (
        SQL_MANN_KENDALL, q_mann_kendall_stats,
    )

    d = q_mann_kendall_stats(SF).to_pandas()
    o = con.execute(SQL_MANN_KENDALL).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_mann_kendall_brute(ray_session, con):
    """Pure-Python double-loop twin over the daily counts, plus the
    |S| <= C(n,2) bound and the no-ties var identity."""
    from polylabel_rs_ray.pipelines.queries_ext120 import q_mann_kendall_stats

    d = q_mann_kendall_stats(SF).to_pandas().set_index("event_type")
    daily = con.execute("""
        SELECT event_type, epoch_us(ts) // 86400000000 AS day, COUNT(*) AS n
        FROM events GROUP BY 1, 2 ORDER BY 1, 2
    """).df()
    for et, g in daily.groupby("event_type"):
        c = list(g["n"])
        s = sum((cj > ci) - (cj < ci)
                for i, ci in enumerate(c) for cj in c[i + 1:])
        n = len(c)
        row = d.loc[et]
        assert row["s_stat"] == s
        assert row["n_days"] == n
        assert abs(s) <= n * (n - 1) // 2
        tie_term = 0
        from collections import Counter
        for t in Counter(c).values():
            tie_term += t * (t - 1) * (2 * t + 5)
        assert row["var18"] == n * (n - 1) * (2 * n + 5) - tie_term


def test_xcorr_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext120 import (
        SQL_XCORR, q_type_hourly_crosscorr,
    )

    d = q_type_hourly_crosscorr(SF).to_pandas()
    o = con.execute(SQL_XCORR).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_xcorr_properties(ray_session):
    """Lag-0 matrix is symmetric; lag-0 diagonal equals the sum of
    squared hourly counts (Cauchy-Schwarz anchor: every off-diagonal
    lag-0 entry^2 <= product of the diagonals)."""
    from polylabel_rs_ray.pipelines.queries_ext120 import q_type_hourly_crosscorr

    d = q_type_hourly_crosscorr(SF).to_pandas()
    assert len(d) == 25 * 4
    lag0 = d[d["lag"] == 0].set_index(["type_a", "type_b"])["xcorr"]
    types = sorted({a for a, _ in lag0.index})
    for a in types:
        for b in types:
            assert lag0[(a, b)] == lag0[(b, a)]
            assert lag0[(a, b)] ** 2 <= lag0[(a, a)] * lag0[(b, b)]
    # lagged sums can never exceed the lag-0 Cauchy-Schwarz bound either
    for lag in (1, 2, 3):
        gl = d[d["lag"] == lag].set_index(["type_a", "type_b"])["xcorr"]
        for a in types:
            for b in types:
                assert gl[(a, b)] ** 2 <= lag0[(a, a)] * lag0[(b, b)]
