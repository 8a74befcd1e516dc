"""Extension batch 58: A/B experiment analysis."""

import hashlib

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def test_ab_test_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext58 import (
        SQL_AB_TEST_PURCHASE_RATES, q_ab_test_purchase_rates,
    )

    d = q_ab_test_purchase_rates(SF).to_pandas().sort_values("arm").reset_index(drop=True)
    o = con.execute(SQL_AB_TEST_PURCHASE_RATES).df().sort_values("arm").reset_index(drop=True)
    assert len(d) == len(o) == 2
    cols = sorted(d.columns)
    assert d[cols].equals(o[cols].astype(d[cols].dtypes.to_dict()))


def test_ab_test_semantics(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext58 import (
        q_ab_test_purchase_rates,
    )

    df = q_ab_test_purchase_rates(SF).to_pandas().sort_values("arm")
    n_users = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    assert df["n_users"].sum() == n_users
    assert (df["n_converted"] <= df["n_users"]).all()
    assert df["z_stat"].nunique() == 1
    # arm assignment replays the md5 convention (spot-check both arms)
    uids = con.execute(
        "SELECT DISTINCT user_id FROM events LIMIT 20"
    ).df()["user_id"]
    arms = {
        int(u): int.from_bytes(
            hashlib.md5(str(int(u)).encode()).digest()[8:], "little"
        ) % 2
        for u in uids
    }
    assert set(arms.values()) == {0, 1}
    # assignment is label-independent of the data: both arms non-empty
    assert (df["n_users"] > 0).all()
    # null-effect corpus (random assignment): |z| should be modest
    assert abs(df["z_stat"].iloc[0]) < 5.0
