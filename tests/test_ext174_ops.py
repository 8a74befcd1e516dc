"""Extension batch 174: secretary stopping + trade asymmetry matrix."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "orders", "lineitem", "customer", "supplier",
              "nation"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_secretary_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext174 import (
        SQL_SECRETARY_STOPPING, q_secretary_stopping,
    )

    d = q_secretary_stopping(SF).to_pandas()
    o = con.execute(SQL_SECRETARY_STOPPING).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert (d["was_best"] == 1).any() and (d["was_best"] == 0).any()


def test_secretary_scalar_twin(ray_session, con):
    """Pure-Python replay of the stopping rule, user by user."""
    from polylabel_rs_ray.pipelines.queries_ext174 import (
        BURN_DEN, BURN_NUM, q_secretary_stopping,
    )

    d = q_secretary_stopping(SF).to_pandas().set_index("user_id")
    raw = con.execute("""
        SELECT user_id, CAST(ROUND(value*100) AS BIGINT) v
        FROM events ORDER BY user_id, ts, event_id""").df()
    for uid, grp in raw.groupby("user_id"):
        v = grp["v"].tolist()
        n = len(v)
        r = (BURN_NUM * n) // BURN_DEN
        thr = max(v[:r]) if r > 0 else -1
        stop = n
        for i in range(r, n):
            if v[i] > thr:
                stop = i + 1
                break
        row = d.loc[uid]
        assert int(row["n_events"]) == n
        assert int(row["burn_in"]) == r
        assert int(row["stop_pos"]) == stop
        assert int(row["stop_cents"]) == v[stop - 1]
        assert int(row["was_best"]) == int(v[stop - 1] == max(v))


def test_asymmetry_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext174 import (
        SQL_TRADE_ASYMMETRY_MATRIX, q_trade_asymmetry_matrix,
    )

    d = q_trade_asymmetry_matrix(SF).to_pandas()
    o = con.execute(SQL_TRADE_ASYMMETRY_MATRIX).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert (d["asym_micro"] > 0).any()


def test_asymmetry_identities(ray_session, con):
    """Canonical ordering, |a-b| identity, and total directed volume
    reconciles with the raw join's revenue sum."""
    from polylabel_rs_ray.pipelines.queries_ext174 import (
        q_trade_asymmetry_matrix,
    )

    d = q_trade_asymmetry_matrix(SF).to_pandas()
    assert (d["nation_a"] <= d["nation_b"]).all()
    assert (d["asym_micro"]
            == (d["vol_ab_micro"] - d["vol_ba_micro"]).abs()).all()
    # self-pairs put everything in vol_ab
    diag = d[d["nation_a"] == d["nation_b"]]
    assert (diag["vol_ba_micro"] == 0).all()
    total = con.execute("""
        SELECT SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                   * (100 - CAST(ROUND(l_discount*100) AS BIGINT)))
        FROM lineitem l
        JOIN orders o ON o.o_orderkey = l.l_orderkey
    """).fetchone()[0]
    assert int(d["vol_ab_micro"].sum() + d["vol_ba_micro"].sum()) \
        == int(total)
