"""Extension batch 131: funnel pattern matching + priority drift."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "orders"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_funnel_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext131 import (
        SQL_FUNNEL_PATTERN_MATCH, q_funnel_pattern_match,
    )

    d = q_funnel_pattern_match(SF).to_pandas()
    o = con.execute(SQL_FUNNEL_PATTERN_MATCH).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_funnel_greedy_twin(ray_session, con):
    """Pure-Python greedy-earliest twin over every user's sorted stream,
    plus stage/timestamp consistency and n_parts invariance."""
    from polylabel_rs_ray.pipelines.queries_ext131 import (
        STEP_WINDOW_US, q_funnel_pattern_match,
    )

    d = q_funnel_pattern_match(SF).to_pandas().set_index("user_id")
    ev = con.execute("""
        SELECT user_id, epoch_us(ts) AS t, event_type FROM events
        WHERE event_type IN ('view', 'click', 'purchase') ORDER BY t
    """).df()
    for uid, g in ev.groupby("user_id"):
        views = sorted(g.loc[g.event_type == "view", "t"])
        if not views:
            assert uid not in d.index
            continue
        vt = views[0]
        clicks = sorted(g.loc[g.event_type == "click", "t"])
        ct = next((t for t in clicks if vt < t <= vt + STEP_WINDOW_US), -1)
        pt = -1
        if ct >= 0:
            purch = sorted(g.loc[g.event_type == "purchase", "t"])
            pt = next((t for t in purch
                       if ct < t <= ct + STEP_WINDOW_US), -1)
        row = d.loc[uid]
        assert row["view_ts"] == vt
        assert row["click_ts"] == ct
        assert row["purchase_ts"] == pt
        assert row["stage"] == 1 + (ct >= 0) + (pt >= 0)
    d1 = q_funnel_pattern_match(SF, n_parts=1).to_pandas()
    d8 = q_funnel_pattern_match(SF, n_parts=8).to_pandas()
    assert _norm(d1).equals(_norm(d8))


def test_drift_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext131 import (
        SQL_CUSTOMER_PRIORITY_DRIFT, q_customer_priority_drift,
    )

    d = q_customer_priority_drift(SF).to_pandas()
    o = con.execute(SQL_CUSTOMER_PRIORITY_DRIFT).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_drift_flag_identity(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext131 import (
        q_customer_priority_drift,
    )

    d = q_customer_priority_drift(SF).to_pandas()
    assert ((d["first_priority"] != d["last_priority"])
            == (d["drifted"] == 1)).all()
    # both classes should occur on real data
    assert d["drifted"].nunique() == 2
