"""Extension batch 143: rotational symmetry + WoW retention."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_rotation_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext143 import (
        _sql_rotation_symmetry_audit, q_rotation_symmetry_audit,
    )

    d = q_rotation_symmetry_audit(SF).to_pandas()
    o = con.execute(_sql_rotation_symmetry_audit()).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_rotation_known_shapes(ray_session):
    """Group theory: rot90 symmetry implies rot180 (closure); the plain
    square exterior of square_with_hole is 90-symmetric as a vertex
    set; degenerate_collinear (a segment) is 180- but not 90-symmetric
    unless square — it is 2x0 so rot90 is False."""
    from polylabel_rs_ray.pipelines.queries_ext143 import (
        q_rotation_symmetry_audit,
    )
    from polylabel_rs_ray.sources.fixtures import FIXTURE_CYCLE

    d = q_rotation_symmetry_audit(SF).to_pandas()
    assert (~d["rot90"] | d["rot180"]).all()
    sq = d[d["fixture_idx"] == FIXTURE_CYCLE.index("square_with_hole")]
    assert sq["rot90"].all()  # exterior square corners are D4-symmetric
    col = d[d["fixture_idx"] == FIXTURE_CYCLE.index("degenerate_collinear")]
    assert col["rot180"].all()
    assert (~col["rot90"]).all()


def test_retention_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext143 import (
        SQL_WOW_RETENTION, q_wow_retention,
    )

    d = q_wow_retention(SF).to_pandas()
    o = con.execute(SQL_WOW_RETENTION).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_retention_brute(ray_session, con):
    """Set twin over (user, week); retained(w) <= min(active(w),
    active(w+1)); last week retains 0 by construction."""
    from polylabel_rs_ray.pipelines.queries_ext143 import (
        WEEK_US, q_wow_retention,
    )

    d = q_wow_retention(SF).to_pandas().sort_values("week").reset_index(
        drop=True)
    uw = con.execute(
        f"SELECT DISTINCT user_id, epoch_us(ts) // {WEEK_US} AS w "
        "FROM events").df()
    by_week: dict = {}
    for r in uw.itertuples():
        by_week.setdefault(int(r.w), set()).add(r.user_id)
    for i, row in d.iterrows():
        w = int(row["week"])
        act = by_week.get(w, set())
        nxt = by_week.get(w + 1, set())
        assert row["n_active"] == len(act)
        assert row["n_retained"] == len(act & nxt)
        assert row["n_retained"] <= min(len(act), len(nxt)) \
            if nxt else row["n_retained"] == 0
    assert d["n_retained"].iloc[-1] == 0
