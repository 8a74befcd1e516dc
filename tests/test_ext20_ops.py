"""Extension operators batch 21 (queries_ext20): inactivity gaps."""

import duckdb

SF = "/root/testdata/sf0.001"


def test_inactivity_gaps_match_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext20 import (
        SQL_USER_INACTIVITY_GAPS,
        q_user_inactivity_gaps,
    )

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    d = q_user_inactivity_gaps(SF).to_pandas()
    o = con.execute(SQL_USER_INACTIVITY_GAPS).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b)
    # max gap fits within each user's observed time span
    span = con.execute(
        "SELECT user_id, epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS s "
        "FROM events GROUP BY user_id"
    ).df()
    j = a.merge(span, on="user_id")
    assert (j["max_gap_us"] <= j["s"]).all()
