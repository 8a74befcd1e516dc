"""Extension operators batch 13 (queries_ext12): sliding distincts and the
inverted index."""

import duckdb
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _compare(q, sql, con):
    res = q(SF)
    d = res.to_pandas() if hasattr(res, "to_pandas") else res
    if isinstance(d, pa.Table):
        d = d.to_pandas()
    o = con.execute(sql).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b), sql
    return a


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["events", "documents"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_sliding_window_users_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext12 import (
        SQL_SLIDING_WINDOW_USERS,
        q_sliding_window_users,
    )

    w = _compare(q_sliding_window_users, SQL_SLIDING_WINDOW_USERS, con)
    total_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert w["n_users"].max() <= total_users
    assert (w["n_users"] >= 1).all()


def test_inverted_index_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext12 import (
        SQL_INVERTED_INDEX,
        q_inverted_index,
    )

    ix = _compare(q_inverted_index, SQL_INVERTED_INDEX, con)
    assert ix["word"].is_unique
    # df equals posting-list length and postings ascend
    for _, r in ix.head(5).iterrows():
        ids = [int(x) for x in r["postings"].split(",")]
        assert len(ids) == r["df"]
        assert ids == sorted(ids)
    # spot-check one word against a direct scan
    w = ix["word"].iloc[0]
    docs = con.execute(
        "SELECT DISTINCT doc_id FROM documents, UNNEST(string_split(text,' ')) "
        "AS u(word) WHERE u.word = ? ORDER BY doc_id",
        [w],
    ).df()["doc_id"].tolist()
    assert ix[ix["word"] == w]["postings"].iloc[0] == ",".join(map(str, docs))
