"""Extension operators batch 15 (queries_ext14): per-group percentile_cont
and composite-key argmax."""

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
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def test_median_cont_per_type_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext14 import (
        SQL_MEDIAN_CONT_PER_TYPE,
        q_median_cont_per_type,
    )

    m = _compare(q_median_cont_per_type, SQL_MEDIAN_CONT_PER_TYPE, con)
    assert (m["lo_cents"] <= m["hi_cents"]).all()
    assert (m["median_num"] == m["lo_cents"] + m["hi_cents"]).all()
    # the exact rational midpoint equals duckdb's quantile_cont
    qc = con.execute(
        "SELECT event_type, quantile_cont(CAST(ROUND(value*100) AS BIGINT), 0.5) q "
        "FROM events GROUP BY event_type"
    ).df().set_index("event_type")
    for _, r in m.iterrows():
        assert r["median_num"] / 2.0 == qc.loc[r["event_type"], "q"]


def test_top_event_per_user_day_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext14 import (
        SQL_TOP_EVENT_PER_USER_DAY,
        q_top_event_per_user_day,
    )

    t = _compare(q_top_event_per_user_day, SQL_TOP_EVENT_PER_USER_DAY, con)
    assert not t.duplicated(["user_id", "day"]).any()
    # the chosen value is the true per-(user, day) max
    mx = con.execute(
        "SELECT user_id, epoch_us(ts)//86400000000 AS day, "
        "MAX(CAST(ROUND(value*100) AS BIGINT)) AS m FROM events GROUP BY 1,2"
    ).df()
    j = t.merge(mx, on=["user_id", "day"])
    assert len(j) == len(t) and (j["value_cents"] == j["m"]).all()
