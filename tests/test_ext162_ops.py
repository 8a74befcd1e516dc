"""Extension batch 162: balance dominance counts + guarded sequence match."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("customer", "supplier", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_dominance_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext162 import (
        SQL_BALANCE_DOMINANCE_COUNTS, q_balance_dominance_counts,
    )

    d = q_balance_dominance_counts(SF).to_pandas()
    o = con.execute(SQL_BALANCE_DOMINANCE_COUNTS).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert (d["pairs_gt"] > 0).any()  # non-trivial


def test_dominance_bruteforce_pairs(ray_session, con):
    """Quadratic numpy twin over the raw tables, plus the pair-mass
    identity gt + eq + lt == |C|*|S| per nation."""
    from polylabel_rs_ray.pipelines.queries_ext162 import (
        q_balance_dominance_counts,
    )

    d = q_balance_dominance_counts(SF).to_pandas().set_index("nationkey")
    cust = con.execute(
        "SELECT c_nationkey AS nk, CAST(ROUND(c_acctbal*100) AS BIGINT) "
        "AS cents FROM customer").df()
    supp = con.execute(
        "SELECT s_nationkey AS nk, CAST(ROUND(s_acctbal*100) AS BIGINT) "
        "AS cents FROM supplier").df()
    cnk, cc = cust["nk"].to_numpy(), cust["cents"].to_numpy()
    snk, sc = supp["nk"].to_numpy(), supp["cents"].to_numpy()
    for nk in sorted(set(cnk) & set(snk)):
        c = cc[cnk == nk]
        s = sc[snk == nk]
        gt = int((c[:, None] > s[None, :]).sum())
        eq = int((c[:, None] == s[None, :]).sum())
        lt = int((c[:, None] < s[None, :]).sum())
        row = d.loc[nk]
        assert int(row["pairs_gt"]) == gt
        assert int(row["pairs_eq"]) == eq
        assert gt + eq + lt == len(c) * len(s)
        assert int(row["n_customers"]) == len(c)
        assert int(row["n_suppliers"]) == len(s)
    assert set(d.index) == set(cnk) & set(snk)


def test_guarded_match_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext162 import (
        SQL_GUARDED_SEQUENCE_MATCH, q_guarded_sequence_match,
    )

    d = q_guarded_sequence_match(SF).to_pandas()
    o = con.execute(SQL_GUARDED_SEQUENCE_MATCH).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert (d["n_matches"] > 0).any() and (d["n_matches"] == 0).any() \
        or (d["n_matches"] > 0).any()


def test_guarded_match_scalar_scan_twin(ray_session, con):
    """Pure-Python armed-flag scan per user — the textbook DFA."""
    from polylabel_rs_ray.pipelines.queries_ext162 import (
        GUARD_FORBID, GUARD_START, GUARD_TARGET, q_guarded_sequence_match,
    )

    d = q_guarded_sequence_match(SF).to_pandas().set_index("user_id")
    raw = con.execute(
        "SELECT user_id, event_type FROM events "
        "ORDER BY user_id, ts, event_id").df()
    for uid, grp in raw.groupby("user_id"):
        armed = False
        n_matches, first_rn = 0, -1
        for rn, et in enumerate(grp["event_type"], start=1):
            if et == GUARD_START:
                armed = True
            elif et == GUARD_FORBID:
                armed = False
            elif et == GUARD_TARGET and armed:
                n_matches += 1
                if first_rn < 0:
                    first_rn = rn
        row = d.loc[uid]
        assert int(row["n_events"]) == len(grp), uid
        assert int(row["n_matches"]) == n_matches, uid
        assert int(row["first_match_rn"]) == first_rn, uid


def test_guarded_match_invariants(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext162 import (
        q_guarded_sequence_match,
    )

    d = q_guarded_sequence_match(SF).to_pandas()
    purchases = con.execute(
        "SELECT user_id, COUNT(*) n FROM events "
        "WHERE event_type='purchase' GROUP BY 1").df().set_index("user_id")
    for row in d.itertuples():
        cap = int(purchases["n"].get(row.user_id, 0))
        assert 0 <= int(row.n_matches) <= cap
        if row.n_matches > 0:
            assert 1 <= row.first_match_rn <= row.n_events
        else:
            assert row.first_match_rn == -1
