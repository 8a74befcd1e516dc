"""Extension batch 164: half-revenue item counts."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("lineitem",):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_half_revenue_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext164 import (
        SQL_HALF_REVENUE_ITEM_COUNT, q_half_revenue_item_count,
    )

    d = q_half_revenue_item_count(SF).to_pandas()
    o = con.execute(SQL_HALF_REVENUE_ITEM_COUNT).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert (d["min_items_half"] > 1).any()  # non-trivial


def test_half_revenue_exhaustive_subsets(ray_session, con):
    """Brute-force ALL subsets per order (≤ 2^13 here): the minimum
    subset size reaching half the total must equal the greedy answer —
    the optimality proof, executed."""
    from itertools import combinations

    from polylabel_rs_ray.pipelines.queries_ext164 import (
        q_half_revenue_item_count,
    )

    d = q_half_revenue_item_count(SF).to_pandas().set_index("o_orderkey")
    raw = con.execute(
        "SELECT l_orderkey, CAST(ROUND(l_extendedprice*100) AS BIGINT) c "
        "FROM lineitem").df()
    rng = np.random.default_rng(7)
    keys = rng.choice(raw["l_orderkey"].unique(), size=60, replace=False)
    for okey in keys:
        c = raw.loc[raw["l_orderkey"] == okey, "c"].to_numpy()
        total = int(c.sum())
        best = None
        for k in range(1, len(c) + 1):
            if any(2 * sum(s) >= total for s in combinations(c, k)):
                best = k
                break
        row = d.loc[int(okey)]
        assert int(row["min_items_half"]) == best, okey
        assert int(row["n_items"]) == len(c)
