"""Extension batch 152: local clustering coefficients + revenue ACF."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("lineitem", "orders"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_clustering_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext152 import (
        SQL_LOCAL_CLUSTERING_COEFF, TOP_K, q_local_clustering_coeff,
    )

    d = q_local_clustering_coeff(SF).to_pandas()
    o = con.execute(SQL_LOCAL_CLUSTERING_COEFF).df()
    assert len(d) == len(o) == TOP_K
    assert _norm(d).equals(_norm(o))


def test_clustering_vs_bruteforce(ray_session, con):
    """Brute-force closure recount over the materialized edge set, plus
    the coefficient's bound [0, 1] and denominator identity."""
    from polylabel_rs_ray.pipelines.queries_ext152 import (
        q_local_clustering_coeff,
    )

    d = q_local_clustering_coeff(SF).to_pandas()
    edges = con.execute("""
        SELECT a.l_partkey AS pa, b.l_partkey AS pb
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
        GROUP BY 1, 2
    """).df()
    eset = set(zip(edges["pa"], edges["pb"]))
    nbr = {}
    for a, b in eset:
        nbr.setdefault(a, set()).add(b)
        nbr.setdefault(b, set()).add(a)
    for row in d.itertuples():
        ns = sorted(nbr[row.part_key])
        assert len(ns) == row.deg
        tri = sum(1 for i, x in enumerate(ns) for y in ns[i + 1:]
                  if (x, y) in eset)
        assert tri == row.n_tri
        assert row.n_possible == row.deg * (row.deg - 1) // 2
        assert 0.0 <= row.coeff <= 1.0


def test_acf_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext152 import (
        SQL_DAILY_REVENUE_ACF, q_daily_revenue_acf,
    )

    d = q_daily_revenue_acf(SF).to_pandas()
    o = con.execute(SQL_DAILY_REVENUE_ACF).df()
    assert len(d) == len(o) == 7
    assert _norm(d).equals(_norm(o))


def test_acf_lag_symmetry(ray_session):
    """For each lag the x-marginal is the series head and the y-marginal
    the tail: sum_x(lag) + (tail terms) == series total on both sides —
    checked via the exact identity sum_x + sum_y == 2*total - head - tail
    mass outside the overlap, specialized here to the contiguous-days
    case where n_pairs == n_days - lag."""
    from polylabel_rs_ray.pipelines.queries_ext133 import (
        _daily_order_revenue,
    )
    from polylabel_rs_ray.pipelines.queries_ext152 import q_daily_revenue_acf

    d = q_daily_revenue_acf(SF).to_pandas()
    days, rev = _daily_order_revenue(SF)
    observed = set(int(x) for x in days)
    rev_of = {int(k): int(v) for k, v in zip(days, rev)}
    for row in d.itertuples():
        lag = int(row.lag)
        pairs = [(dd, dd + lag) for dd in observed if dd + lag in observed]
        assert row.n_pairs == len(pairs)
        assert int(row.sum_x) == sum(rev_of[a] for a, _ in pairs)
        assert int(row.sum_y) == sum(rev_of[b] for _, b in pairs)
        assert int(row.sum_xy) == sum(rev_of[a] * rev_of[b]
                                      for a, b in pairs)
