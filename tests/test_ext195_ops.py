"""Extension batch 195: 1-D two-center + geometric interarrival MLE."""

from fractions import Fraction
from math import gcd

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders",):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_two_center_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext195 import (
        SQL_REVENUE_TWO_CENTER, q_revenue_two_center,
    )

    d = q_revenue_two_center(SF).to_pandas()
    o = con.execute(SQL_REVENUE_TWO_CENTER).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_two_center_optimality(ray_session, con):
    """Exhaustive cut scan AND the cross-partition optimality argument:
    no NON-contiguous 2-clustering beats the contiguous optimum
    (verified on random subsets by direct enumeration)."""
    from itertools import combinations

    from polylabel_rs_ray.pipelines.queries_ext195 import (
        q_revenue_two_center,
    )

    d = q_revenue_two_center(SF).to_pandas().iloc[0]
    v = sorted(set(int(r[0]) for r in con.execute(
        "SELECT SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) FROM orders "
        "GROUP BY CAST(o_orderdate AS DATE)").fetchall()))
    n = len(v)
    best = min((max(v[c] - v[0], v[-1] - v[c + 1]), c)
               for c in range(n - 1))
    assert (int(d["objective"]), int(d["cut_idx"])) == best
    assert int(d["n_values"]) == n
    assert int(d["left_diam"]) == v[best[1]] - v[0]
    assert int(d["right_diam"]) == v[-1] - v[best[1] + 1]
    # contiguity optimality on a small subset: enumerate ALL 2-subsets
    sub = v[:: max(1, n // 12)][:12]
    m = len(sub)
    brute = None
    for r in range(1, m):
        for left in combinations(range(m), r):
            ls = [sub[i] for i in left]
            rs = [sub[i] for i in range(m) if i not in left]
            obj = max(max(ls) - min(ls), max(rs) - min(rs))
            if brute is None or obj < brute:
                brute = obj
    contiguous = min(max(sub[c] - sub[0], sub[-1] - sub[c + 1])
                     for c in range(m - 1))
    assert contiguous == brute


def test_mle_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext195 import (
        SQL_INTERARRIVAL_GEOMETRIC_MLE, q_interarrival_geometric_mle,
    )

    d = q_interarrival_geometric_mle(SF).to_pandas()
    o = con.execute(SQL_INTERARRIVAL_GEOMETRIC_MLE).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_mle_stationarity(ray_session):
    """p̂ = n/(n+S) reduced; the geometric log-likelihood
    n·log p + S·log(1−p) at p̂ beats a probe grid (compared via exact
    rational likelihood RATIOS, no logs: L(p)/L(q) =
    (p/q)^n ((1−p)/(1−q))^S as Fractions)."""
    from polylabel_rs_ray.pipelines.queries_ext195 import (
        q_interarrival_geometric_mle,
    )

    d = q_interarrival_geometric_mle(SF).to_pandas().iloc[0]
    n, S = int(d["n_gaps"]), int(d["sum_gaps"])
    num, den = int(d["p_num"]), int(d["p_den"])
    assert gcd(num, den) == 1
    assert Fraction(num, den) == Fraction(n, n + S)
    p = Fraction(num, den)

    def lik(q: Fraction) -> Fraction:
        return q ** n * (1 - q) ** S

    for q in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 3),
              Fraction(1, 2), Fraction(9, 10)):
        if q != p:
            assert lik(p) >= lik(q), q
