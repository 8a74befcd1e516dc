"""Extension batch 48: per-user event-type diversity index."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_type_diversity_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext48 import (
        SQL_TYPE_DIVERSITY_PER_USER, q_type_diversity_per_user,
    )

    d = _sorted(q_type_diversity_per_user(SF).to_pandas())
    o = con.execute(SQL_TYPE_DIVERSITY_PER_USER).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_type_diversity_semantics(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext48 import (
        q_type_diversity_per_user,
    )

    df = q_type_diversity_per_user(SF).to_pandas()
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert len(df) == n_users
    # identity: simpson == 0 iff single type; bounded by 1 - 1/n_types
    assert (df["simpson"] >= 0).all()
    single = df[df["n_types"] == 1]
    assert (single["simpson"] == 0).all() or len(single) == 0
    multi = df[df["n_types"] > 1]
    assert (multi["simpson"] > 0).all()
    assert (df["simpson"] <= 1 - 1.0 / df["n_types"] + 1e-15).all()
    # partition invariance
    a = _sorted(q_type_diversity_per_user(SF, n_parts=1).to_pandas())
    b = _sorted(q_type_diversity_per_user(SF, n_parts=6).to_pandas())
    assert a.equals(b)
