"""Extension batch 155: isotonic regression."""

import duckdb
import numpy as np
import pytest
from fractions import Fraction

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("part",):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_isotonic_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext155 import (
        SQL_ISOTONIC_PRICE_SIZE, q_isotonic_price_size,
    )

    d = q_isotonic_price_size(SF).to_pandas()
    o = con.execute(SQL_ISOTONIC_PRICE_SIZE).df()
    assert len(d) == len(o) == 50
    assert _norm(d).equals(_norm(o))


def test_isotonic_properties(ray_session):
    """The fit is monotone non-decreasing, mass-preserving per block,
    and equals the brute-force minimax formula at every point (PAVA's
    uniqueness characterization, recomputed independently here)."""
    from polylabel_rs_ray.pipelines.queries_ext155 import (
        q_isotonic_price_size,
    )

    d = q_isotonic_price_size(SF).to_pandas().sort_values("sz") \
        .reset_index(drop=True)
    fits = [Fraction(int(a), int(b))
            for a, b in zip(d["fit_num"], d["fit_den"])]
    assert all(x <= y for x, y in zip(fits, fits[1:]))
    S = d["raw_sum_cents"].to_numpy().astype(object)
    N = d["raw_n"].to_numpy().astype(object)
    ps = np.concatenate([[0], np.cumsum(S)])
    pn = np.concatenate([[0], np.cumsum(N)])
    K = len(d)

    def avg(i, j):
        return Fraction(int(ps[j + 1] - ps[i]), int(pn[j + 1] - pn[i]))

    minimax = [max(min(avg(i, j) for j in range(k, K))
                   for i in range(k + 1)) for k in range(K)]
    assert fits == minimax
    # block mass preservation: within a level set, sum of raw mass
    # equals fit_num and counts equal fit_den
    bid = (np.array([0] + [int(fits[i] != fits[i - 1])
                           for i in range(1, K)])).cumsum()
    for b in np.unique(bid):
        m = bid == b
        assert int(sum(S[m])) == int(d.loc[m, "fit_num"].iloc[0])
        assert int(sum(N[m])) == int(d.loc[m, "fit_den"].iloc[0])
