"""Extension batch 188: Lyndon factorization + LPT scheduling."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "part"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_lyndon_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext188 import (
        SQL_DOC_LYNDON_FACTORS, q_doc_lyndon_factors,
    )

    d = q_doc_lyndon_factors(SF).to_pandas()
    o = con.execute(SQL_DOC_LYNDON_FACTORS).df()
    assert len(d) == len(o) > 1
    assert _norm(d).equals(_norm(o))


def test_lyndon_properties(ray_session, con):
    """Factors concatenate to the text, are non-increasing, and each is
    a Lyndon word (strictly smaller than all its proper suffixes)."""
    from polylabel_rs_ray.pipelines.queries_ext188 import (
        q_doc_lyndon_factors,
    )

    d = q_doc_lyndon_factors(SF).to_pandas().sort_values("start_pos")
    s = con.execute("""
        SELECT text FROM documents
        WHERE doc_id = (SELECT MIN(doc_id) FROM documents)""").fetchone()[0]
    assert "".join(d["factor"]) == s
    facs = d["factor"].tolist()
    for a, b in zip(facs, facs[1:]):
        assert a >= b
    for f in facs:
        for k in range(1, len(f)):
            assert f < f[k:], (f, k)
    # positional consistency
    pos = 0
    for r in d.itertuples():
        assert int(r.start_pos) == pos
        assert len(r.factor) == int(r.factor_len)
        pos += int(r.factor_len)


def test_lpt_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext188 import (
        _sql_lpt_schedule, q_lpt_schedule,
    )

    d = q_lpt_schedule(SF).to_pandas()
    o = con.execute(_sql_lpt_schedule()).df()
    assert len(d) == len(o) == 7
    assert _norm(d).equals(_norm(o))


def test_lpt_greedy_and_bound(ray_session, con):
    """Scalar greedy replay; mass identity; 4/3-approximation against
    the lower bounds max(job_max, ceil(total/machines))."""
    from polylabel_rs_ray.pipelines.queries_ext188 import (
        LPT_JOBS, LPT_MACHINES, q_lpt_schedule,
    )

    d = q_lpt_schedule(SF).to_pandas().sort_values("machine")
    jobs = [int(r[0]) for r in con.execute(f"""
        SELECT CAST(ROUND(p_retailprice*100) AS BIGINT) c FROM part
        ORDER BY c DESC, p_partkey LIMIT {LPT_JOBS}""").fetchall()]
    loads = [0] * LPT_MACHINES
    counts = [0] * LPT_MACHINES
    for c in jobs:
        m = min(range(LPT_MACHINES), key=lambda i: (loads[i], i))
        loads[m] += c
        counts[m] += 1
    assert d["load_cents"].tolist() == loads
    assert d["n_jobs"].tolist() == counts
    assert int(d["load_cents"].sum()) == sum(jobs)
    assert int(d["n_jobs"].sum()) == LPT_JOBS
    makespan = int(d["load_cents"].max())
    lb = max(max(jobs), -(-sum(jobs) // LPT_MACHINES))
    assert makespan <= (4 * lb) // 3 + max(jobs)  # loose 4/3-style bound
    assert makespan >= lb
