"""Extension batch 117: sliding distinct users + FOR encoding cost."""

import duckdb
import pandas as pd
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


def test_sliding_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext117 import (
        _sql_sliding_distinct_users, q_sliding_distinct_users,
    )

    d = q_sliding_distinct_users(SF).to_pandas()
    o = con.execute(_sql_sliding_distinct_users()).df()
    assert len(d) == len(o) == 720
    assert _norm(d).equals(_norm(o))


def test_sliding_nparts_invariance_and_brute(ray_session):
    """Partition count never changes the answer, and a pandas brute
    force over (user, hour) pairs recounts every window exactly."""
    from polylabel_rs_ray.pipelines.queries_ext117 import (
        WINDOW_H, _HOUR_US, _ORIGIN_US, q_sliding_distinct_users,
    )

    d1 = q_sliding_distinct_users(SF).to_pandas().sort_values("hour_idx")
    d3 = q_sliding_distinct_users(SF, n_parts=3).to_pandas() \
        .sort_values("hour_idx")
    assert d1.reset_index(drop=True).equals(d3.reset_index(drop=True))

    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "ts"])
    idx = (ev["ts"].astype("int64") - _ORIGIN_US) // _HOUR_US
    pairs = set(zip(ev["user_id"], idx))
    by_user = {}
    for u, i in pairs:
        by_user.setdefault(u, set()).add(i)
    got = dict(zip(d1["hour_idx"], d1["n_users_24h"]))
    for h in range(0, 720, 37):  # sampled hours, brute window recount
        expect = sum(1 for hs in by_user.values()
                     if any(h - WINDOW_H + 1 <= i <= h for i in hs))
        assert got[h] == expect


def test_for_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext117 import (
        _sql_for_encoding_cost, q_for_encoding_cost,
    )

    d = q_for_encoding_cost(SF).to_pandas()
    o = con.execute(_sql_for_encoding_cost()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_for_width_semantics(ray_session):
    """width is exactly the binary digit count of the block range, and
    the cost decomposes as 128 + width*n; a pandas recount pins all
    block extrema."""
    from polylabel_rs_ray.pipelines.queries_ext117 import (
        FOR_BLOCK, q_for_encoding_cost,
    )

    d = q_for_encoding_cost(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_id", "ts"])
    ev["blk"] = ev["event_id"] // FOR_BLOCK
    ev["us"] = ev["ts"].astype("int64")
    g = ev.groupby("blk")["us"].agg(["min", "max", "count"])
    for row in d.itertuples():
        lo, hi, n = g.loc[row.block_id]
        rng = int(hi - lo)
        width = rng.bit_length()
        assert row.vmin == lo and row.n == n
        assert row.width_bits == width
        assert row.cost_bits == 128 + width * n
