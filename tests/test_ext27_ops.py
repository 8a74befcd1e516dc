"""Extension batch 27: interval overlap counting (range join)."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def test_interval_overlap_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext27 import (
        _sql_interval_overlap, q_interval_overlap,
    )

    d = q_interval_overlap(SF).to_pandas()
    o = con.execute(_sql_interval_overlap()).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert a.equals(b)
    assert (a["n_overlap"] >= 0).all()
    assert a["n_overlap"].max() > 0  # concurrency exists in the data


def test_interval_overlap_equals_bruteforce(ray_session):
    """The stabbing identity #(start<=e) - #(end<s) - 1 must equal the
    brute-force pairwise overlap count over the same sessions."""
    from polylabel_rs_ray.pipelines.queries import q_sessionize
    from polylabel_rs_ray.pipelines.queries_ext27 import q_interval_overlap

    sess = q_sessionize(SF).to_pandas()
    got = (
        q_interval_overlap(SF).to_pandas()
        .set_index(["user_id", "session_idx"])["n_overlap"]
    )
    s = sess["session_start_us"].to_numpy()
    e = sess["session_end_us"].to_numpy()
    brute = ((s[None, :] <= e[:, None]) & (e[None, :] >= s[:, None])).sum(axis=1) - 1
    want = dict(zip(zip(sess["user_id"], sess["session_idx"]), brute))
    assert len(got) == len(want)
    for k, v in got.items():
        assert v == want[k]


def test_own_sessions_never_overlap(ray_session):
    """Gap-based sessions of one user are disjoint — the identity's
    self-match-only assumption."""
    from polylabel_rs_ray.pipelines.queries import q_sessionize

    sess = q_sessionize(SF).to_pandas().sort_values(
        ["user_id", "session_start_us"]
    )
    for _uid, g in sess.groupby("user_id"):
        starts = g["session_start_us"].to_numpy()
        ends = g["session_end_us"].to_numpy()
        assert (starts[1:] > ends[:-1]).all()
