"""Extension operators batch 17 (queries_ext16): one-pass table profiler."""

import duckdb

SF = "/root/testdata/sf0.001"


def test_table_profile_matches_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext16 import (
        PROFILE_COLS,
        _sql_table_profile,
        q_table_profile,
    )

    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    d = q_table_profile(SF).to_pandas()
    o = con.execute(_sql_table_profile()).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert a.equals(b)
    assert set(d["column"]) == set(PROFILE_COLS)
    assert (d["n_distinct"] <= d["n"]).all()
    assert (d["min_v"] <= d["max_v"]).all()
