"""Extension batch 126: Roaring container costs + posting-list costs."""

import duckdb
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


def test_roaring_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext126 import (
        SQL_ROARING_COST_ESTIMATE, q_roaring_cost_estimate,
    )

    d = q_roaring_cost_estimate(SF).to_pandas()
    o = con.execute(SQL_ROARING_COST_ESTIMATE).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_roaring_brute(ray_session, con):
    """Pure-Python Counter twin over (type, id>>16) plus the container
    accounting identity array + bitmap == total containers."""
    from collections import Counter

    from polylabel_rs_ray.pipelines.queries_ext126 import (
        ROARING_BITMAP_BYTES, ROARING_BREAK_EVEN, ROARING_HEADER_BYTES,
        q_roaring_cost_estimate,
    )

    d = q_roaring_cost_estimate(SF).to_pandas().set_index("event_type")
    assert (d["array_containers"] + d["bitmap_containers"]
            == d["n_containers"]).all()
    ev = con.execute("SELECT event_type, event_id FROM events").df()
    cnt = Counter(zip(ev["event_type"], ev["event_id"] // 65536))
    per_type: dict = {}
    for (et, _b), n in cnt.items():
        st = per_type.setdefault(et, [0, 0, 0, 0])
        st[0] += 1
        if n < ROARING_BREAK_EVEN:
            st[1] += 1
            st[3] += 2 * n
        else:
            st[2] += 1
            st[3] += ROARING_BITMAP_BYTES
    for et, (nc, na, nb, bb) in per_type.items():
        row = d.loc[et]
        assert row["n_containers"] == nc
        assert row["array_containers"] == na
        assert row["bitmap_containers"] == nb
        assert row["total_bytes"] == bb + ROARING_HEADER_BYTES * nc


def test_postings_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext126 import (
        SQL_POSTING_LIST_COST, q_posting_list_cost,
    )

    d = q_posting_list_cost(SF).to_pandas()
    o = con.execute(SQL_POSTING_LIST_COST).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_postings_invariants(ray_session, con):
    """df matches the inverted index's posting lengths; varint bytes are
    bounded by [df, 10·df]; partition-count invariance."""
    from polylabel_rs_ray.pipelines.queries_ext126 import q_posting_list_cost

    d = q_posting_list_cost(SF).to_pandas()
    assert (d["varint_bytes"] >= d["df"]).all()
    assert (d["varint_bytes"] <= 10 * d["df"]).all()
    df_sql = con.execute(r"""
        SELECT count(*) FROM (
          SELECT DISTINCT w.word, d.doc_id
          FROM documents d, LATERAL (SELECT UNNEST(
            regexp_extract_all(lower(d.text), '\S+')) AS word) w)
    """).fetchone()[0]
    assert int(d["df"].sum()) == df_sql
    d1 = q_posting_list_cost(SF, n_parts=1).to_pandas()
    d8 = q_posting_list_cost(SF, n_parts=8).to_pandas()
    assert _norm(d1).equals(_norm(d8))
