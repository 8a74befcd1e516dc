"""Extension batch 183: Burrows-Wheeler transform + Rice parameter scan."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "orders"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_bwt_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext183 import (
        SQL_DOC_BWT, q_doc_bwt,
    )

    d = q_doc_bwt(SF).to_pandas()
    o = con.execute(SQL_DOC_BWT).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_bwt_invertible(ray_session, con):
    """LF-mapping inversion recovers a cyclic rotation of the text, and
    the BWT is a character-multiset permutation of it."""
    from collections import Counter

    from polylabel_rs_ray.pipelines.queries_ext183 import q_doc_bwt

    d = q_doc_bwt(SF).to_pandas().sort_values("rank")
    bwt = "".join(d["ch"])
    text = con.execute("""
        SELECT text FROM documents
        WHERE doc_id = (SELECT MIN(doc_id) FROM documents)""").fetchone()[0]
    L = len(text)
    assert Counter(bwt) == Counter(text)
    # LF mapping: next[i] = position in first column of bwt[i]'s
    # occurrence; walking L steps from any start yields a rotation
    first = sorted(range(L), key=lambda i: (bwt[i], i))
    lf = [0] * L
    for rank_in_first, i in enumerate(first):
        lf[i] = rank_in_first
    out = []
    row = 0
    for _ in range(L):
        out.append(bwt[row])
        row = lf[row]
    recovered = "".join(reversed(out))
    assert recovered in text + text  # a cyclic rotation of text


def test_rice_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext183 import (
        SQL_RICE_PARAM_SCAN, q_rice_param_scan,
    )

    d = q_rice_param_scan(SF).to_pandas()
    o = con.execute(SQL_RICE_PARAM_SCAN).df()
    assert len(d) == len(o) == 16
    assert _norm(d).equals(_norm(o))
    assert int(d["is_best"].sum()) == 1


def test_rice_cost_definition(ray_session, con):
    """Scalar recount of the bit costs per k and the argmin flag; the
    best k beats 64-bit fixed width."""
    from polylabel_rs_ray.pipelines.queries_ext183 import (
        q_rice_param_scan,
    )

    d = q_rice_param_scan(SF).to_pandas().sort_values("k")
    days = sorted(r[0] for r in con.execute(
        "SELECT DISTINCT CAST(o_orderdate AS DATE) - DATE '1970-01-01' "
        "FROM orders").fetchall())
    gaps = [b - a - 1 for a, b in zip(days, days[1:])]
    for r in d.itertuples():
        k = int(r.k)
        want = sum((g >> k) + 1 + k for g in gaps)
        assert int(r.total_bits) == want
    best_row = d[d["is_best"] == 1].iloc[0]
    assert int(best_row["total_bits"]) == int(d["total_bits"].min())
    assert int(best_row["total_bits"]) < 64 * len(gaps)
