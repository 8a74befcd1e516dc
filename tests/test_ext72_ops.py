"""Extension batch 72: audience overlap matrix + bloom FP audit."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "orders", "lineitem"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_overlap_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext72 import (
        SQL_AUDIENCE_OVERLAP_MATRIX, q_audience_overlap_matrix,
    )

    d = q_audience_overlap_matrix(SF)
    o = con.execute(SQL_AUDIENCE_OVERLAP_MATRIX).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_overlap_matrix_properties(ray_session):
    """Diagonal is full overlap; the matrix is symmetric; inclusion-
    exclusion bounds hold."""
    from polylabel_rs_ray.pipelines.queries_ext72 import (
        q_audience_overlap_matrix,
    )

    d = q_audience_overlap_matrix(SF)
    idx = {(r["type_a"], r["type_b"]): r for _, r in d.iterrows()}
    types = sorted(d["type_a"].unique())
    for a in types:
        diag = idx[(a, a)]
        assert diag["n_both"] == diag["n_a"] == diag["n_b"]
        assert diag["jaccard_num"] == diag["jaccard_den"]
    for a in types:
        for b in types:
            ab, ba = idx[(a, b)], idx[(b, a)]
            assert ab["n_both"] == ba["n_both"]
            assert ab["n_both"] <= min(ab["n_a"], ab["n_b"])


def test_bloom_audit_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext72 import (
        _sql_bloom_fp_audit, q_bloom_fp_audit,
    )

    d = q_bloom_fp_audit(SF)
    o = con.execute(_sql_bloom_fp_audit()).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_bloom_no_false_negatives(ray_session):
    """Supersets only: every true member passes, so pass >= with."""
    from polylabel_rs_ray.pipelines.queries_ext72 import q_bloom_fp_audit

    d = q_bloom_fp_audit(SF).iloc[0]
    assert d["n_bloom_pass"] >= d["n_with_lineitems"]
    assert d["n_false_pos"] == d["n_bloom_pass"] - d["n_with_lineitems"]
    assert d["n_false_pos"] >= 0


def test_bloom_sql_hash_matches_engine():
    """The HUGEINT probe-position expressions reproduce _hash_pair."""
    from polylabel_rs_ray.pipelines.bloom import _hash_pair
    from polylabel_rs_ray.pipelines.queries_ext72 import (
        AUDIT_M_BITS, GOLD_A_INT, GOLD_B_INT, TWO64,
    )

    keys = np.array([0, 1, 42, 987654321], dtype=np.int64)
    p1, p2 = _hash_pair(keys, AUDIT_M_BITS)
    mask = AUDIT_M_BITS - 1
    con = duckdb.connect()
    h1 = (f"(((CAST(k AS HUGEINT) * {GOLD_A_INT}) % {TWO64}) // {1 << 32})"
          f" & {mask}")
    h2 = (f"((((CAST(k AS HUGEINT) * {GOLD_B_INT}) % {TWO64}) // {1 << 32})"
          f" | 1) & {mask}")
    df = con.execute(
        f"SELECT CAST({h1} AS BIGINT) AS p1,"
        f" CAST((({h1}) + ({h2})) & {mask} AS BIGINT) AS p2"
        " FROM (SELECT unnest([0, 1, 42, 987654321]) AS k)").df()
    assert (df["p1"].to_numpy() == p1.astype(np.int64)).all()
    assert (df["p2"].to_numpy() == p2.astype(np.int64)).all()
