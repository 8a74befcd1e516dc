"""Extension batch 193: bipartite joint degrees + above-median runs."""

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


def test_joint_degrees_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext193 import (
        SQL_BIPARTITE_JOINT_DEGREES, q_bipartite_joint_degrees,
    )

    d = q_bipartite_joint_degrees(SF).to_pandas()
    o = con.execute(SQL_BIPARTITE_JOINT_DEGREES).df()
    assert len(d) == len(o) > 5
    assert _norm(d).equals(_norm(o))


def test_joint_degrees_identities(ray_session, con):
    """Edge mass equals the distinct-edge count; marginals reproduce
    the plain degree histograms weighted by degree."""
    from polylabel_rs_ray.pipelines.queries_ext193 import (
        q_bipartite_joint_degrees,
    )

    d = q_bipartite_joint_degrees(SF).to_pandas()
    n_edges = con.execute("""
        SELECT COUNT(*) FROM (SELECT DISTINCT l_partkey, l_suppkey
                              FROM lineitem)""").fetchone()[0]
    assert int(d["n_edges"].sum()) == int(n_edges)
    # part marginal: sum of edges at part-degree k == k * (#parts deg k)
    pdeg = con.execute("""
        SELECT d, COUNT(*) n FROM (
          SELECT COUNT(*) d FROM (SELECT DISTINCT l_partkey, l_suppkey
                                  FROM lineitem) GROUP BY l_partkey)
        GROUP BY 1""").df().set_index("d")["n"]
    marg = d.groupby("part_deg_b")["n_edges"].sum()
    for k, m in marg.items():
        assert int(m) == int(k) * int(pdeg[int(k)])


def test_runs_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext193 import (
        SQL_ABOVE_MEDIAN_LONGEST_RUN, q_above_median_longest_run,
    )

    d = q_above_median_longest_run(SF).to_pandas()
    o = con.execute(SQL_ABOVE_MEDIAN_LONGEST_RUN).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_runs_scalar_twin(ray_session, con):
    """Scalar walk over the daily series with an independent median."""
    from polylabel_rs_ray.pipelines.queries_ext193 import (
        q_above_median_longest_run,
    )

    d = q_above_median_longest_run(SF).to_pandas().iloc[0]
    daily = con.execute("""
        SELECT CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS day,
               SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS cents
        FROM orders GROUP BY 1 ORDER BY 1""").df()
    cents = sorted(daily["cents"].astype(int))
    n = len(cents)
    med2 = cents[(n - 1) // 2] + cents[n // 2]
    assert int(d["med2"]) == med2
    above_days = [int(r.day) for r in daily.itertuples()
                  if 2 * int(r.cents) > med2]
    assert int(d["n_days_above"]) == len(above_days)
    best = cur = 0
    prev = None
    for day in above_days:
        cur = cur + 1 if prev is not None and day == prev + 1 else 1
        best = max(best, cur)
        prev = day
    assert int(d["longest_run"]) == best
    assert 0 < len(above_days) < n  # strictly-above excludes the median
