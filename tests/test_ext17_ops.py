"""Extension operators batch 18 (queries_ext17): ratio-to-report and
calendar-function parity."""

import duckdb
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
    for t in ["orders", "customer", "nation", "events"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_revenue_share_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext17 import (
        SQL_REVENUE_SHARE_BY_NATION,
        q_revenue_share_by_nation,
    )

    s = _compare(q_revenue_share_by_nation, SQL_REVENUE_SHARE_BY_NATION, con)
    assert abs(s["share"].sum() - 1.0) < 1e-9
    assert (s["revenue_cents"].sum() == s["total_cents"].iloc[0])


def test_events_by_dow_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext17 import (
        SQL_EVENTS_BY_DOW,
        q_events_by_dow,
    )

    d = _compare(q_events_by_dow, SQL_EVENTS_BY_DOW, con)
    assert d["dow"].between(1, 7).all()
    total = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert d["n_events"].sum() == total
