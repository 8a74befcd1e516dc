"""Extension operators batch 8 (queries_ext7): sampling / quantile
sketch — oracle matches plus the sketch's rank-error bound."""

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
    for t in ["orders", "events"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_weighted_sample_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext7 import (
        SQL_WEIGHTED_SAMPLE,
        WS_K,
        q_weighted_sample,
    )

    s = _compare(q_weighted_sample, SQL_WEIGHTED_SAMPLE, con)
    assert len(s) == WS_K
    assert s["o_orderkey"].is_unique
    # weighted sampling bias: the sample's mean price exceeds the corpus
    # mean (selection is proportional to price)
    corpus_mean = con.execute(
        "SELECT AVG(ROUND(o_totalprice*100)) FROM orders"
    ).fetchone()[0]
    assert s["total_cents"].mean() > corpus_mean


def test_weighted_sample_deterministic(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext7 import q_weighted_sample

    a = q_weighted_sample(SF).to_pandas()
    b = q_weighted_sample(SF).to_pandas()
    assert a.equals(b)


def test_sketch_block_weights_conserve_and_bound():
    from polylabel_rs_ray.pipelines.queries_ext7 import SKETCH_B, sketch_block

    rng = np.random.default_rng(3)
    x = rng.integers(0, 10_000, 20_000)
    reps, w = sketch_block(x)
    assert w.sum() == len(x)
    assert len(reps) <= SKETCH_B
    # representative rank error: weighted rank of reps[i] (cumsum w) is
    # within stride of its true rank
    s = np.sort(x)
    stride = -(-len(x) // SKETCH_B)
    cum = np.cumsum(w)
    true_rank = np.searchsorted(s, reps, side="right")
    assert (np.abs(cum - true_rank) <= stride).all()


def test_quantile_sketch_rank_error_bound(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext7 import (
        SKETCH_B,
        q_value_quantile_sketch,
    )

    est = q_value_quantile_sketch(SF).to_pandas()
    vals = np.sort(
        con.execute("SELECT CAST(ROUND(value*100) AS BIGINT) FROM events")
        .df()
        .iloc[:, 0]
        .to_numpy()
    )
    N = len(vals)
    assert (est["n_total"] == N).all()
    # merged sketch rank error <= N/B per block, summed over blocks; allow
    # 4 blocks' worth of slack at this scale
    tol = 4 * -(-N // SKETCH_B)
    for _, r in est.iterrows():
        target = max(1, int(np.ceil(r["q"] * N)))
        lo = np.searchsorted(vals, r["est_cents"], side="left")
        hi = np.searchsorted(vals, r["est_cents"], side="right")
        assert lo - tol <= target <= hi + tol
