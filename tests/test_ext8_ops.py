"""Extension operators batch 9 (queries_ext8): conversion latency, exact
MAD, vocabulary build — bit-equal to DuckDB at sf0.001."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _compare(q, sql, con):
    res = q(SF)
    d = res.to_pandas() if hasattr(res, "to_pandas") else res
    if isinstance(d, pa.Table):
        d = d.to_pandas()
    o = con.execute(sql).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b), sql
    return a


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["events", "documents"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_conversion_latency_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext8 import (
        SQL_USER_CONVERSION_LATENCY,
        q_user_conversion_latency,
    )

    l = _compare(q_user_conversion_latency, SQL_USER_CONVERSION_LATENCY, con)
    assert (l["latency_us"] >= 0).all()
    assert l["user_id"].is_unique


def test_value_mad_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext8 import SQL_VALUE_MAD, q_value_mad

    m = _compare(q_value_mad, SQL_VALUE_MAD, con)
    assert len(m) == 1 and (m["mad_cents"] >= 0).all()


def test_exact_median_matches_numpy(ray_session):
    import ray

    from polylabel_rs_ray.pipelines.queries_ext8 import exact_median_int

    rng = np.random.default_rng(5)
    for vals in [
        rng.integers(-1000, 1000, 10_001),
        rng.integers(0, 5, 1000),  # heavy ties
        np.array([7]),
        np.array([3, 3, 3, 3]),
    ]:
        ds = ray.data.from_arrow(pa.table({"c": pa.array(vals, type=pa.int64())}))
        got = exact_median_int(ds, "c")
        s = np.sort(vals)
        want = int(s[int(np.ceil(0.5 * len(s))) - 1])  # quantile_disc 0.5
        assert got == want, (got, want, len(vals))


def test_vocab_ids_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext8 import SQL_VOCAB_IDS, q_vocab_ids

    v = _compare(q_vocab_ids, SQL_VOCAB_IDS, con)
    assert v["word"].is_unique
    vv = v.sort_values("word_id")
    assert vv["word"].is_monotonic_increasing  # ids follow lex order
