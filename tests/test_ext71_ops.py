"""Extension batch 71: partition-skew audit + label-centroid offset."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_skew_audit_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext71 import (
        SQL_PARTITION_SKEW_AUDIT, q_partition_skew_audit,
    )

    d = q_partition_skew_audit(SF)
    o = con.execute(SQL_PARTITION_SKEW_AUDIT).df()
    assert len(d) == len(o) == 32
    assert _norm(d).equals(_norm(o))


def test_skew_audit_mass_and_gini_range(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext71 import q_partition_skew_audit

    d = q_partition_skew_audit(SF)
    total = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(d["n_rows"].sum()) == total
    gini = d["gini_num"].iloc[0] / d["gini_den"].iloc[0]
    # sf0.001 has only 15 distinct users over 32 partitions, so many
    # partitions are legitimately empty — the audit exists to expose
    # exactly this; only the mathematical range is invariant
    assert 0.0 <= gini < 1.0


def test_sql_hash_replay_matches_engine_hash():
    """The HUGEINT SQL expression reproduces hash_part bit-for-bit."""
    from polylabel_rs_ray.pipelines.agg import hash_part
    from polylabel_rs_ray.pipelines.queries_ext71 import (
        AUDIT_P, GOLD_INT, TWO64,
    )

    ids = np.array([0, 1, 7, 123456, 999999937], dtype=np.int64)
    eng = hash_part(ids, AUDIT_P)
    con = duckdb.connect()
    sql = con.execute(
        f"SELECT CAST(((CAST(i AS HUGEINT) * {GOLD_INT}) % {TWO64})"
        f" // {1 << 33} % {AUDIT_P} AS BIGINT) AS p"
        " FROM (SELECT unnest([0, 1, 7, 123456, 999999937]) AS i)"
    ).df()["p"].to_numpy()
    assert (eng == sql).all()


def test_centroid_offset_matches_oracle(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext71 import (
        _sql_label_centroid_offset, q_label_centroid_offset,
    )

    d = q_label_centroid_offset(SF).to_pandas()
    o = con.execute(_sql_label_centroid_offset()).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_centroid_offset_geometry():
    """square_with_hole: the hole (60..80)^2 pulls the centroid off the
    bbox center by the area-weighted mixture formula."""
    from polylabel_rs_ray.pipelines.queries_ext71 import _twin_centroid
    from polylabel_rs_ray.sources.fixtures import FIXTURES

    sq = FIXTURES["square_with_hole"]
    rings = [np.asarray(r, dtype=np.float64) for r in sq.rings]
    off = rings[0].min(axis=0)
    rings = [r - off for r in rings]
    cx, cy = _twin_centroid(rings)
    a_out = 100.0 * 100.0
    a_hole = 20.0 * 20.0
    expect = (a_out * 50.0 - a_hole * 70.0) / (a_out - a_hole)
    assert cx == pytest.approx(expect)
    assert cy == pytest.approx(expect)
