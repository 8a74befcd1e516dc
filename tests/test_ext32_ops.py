"""Extension batch 32: SQ8 scalar-quantized exact-ADC top-k."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{SF}/embeddings.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_sq8_topk_matches_duckdb(ray_session, con):
    """Value-exact INCLUDING the integer distance column (the float-cosine
    ann_topk oracle can only compare ranks)."""
    from polylabel_rs_ray.pipelines.queries_ext32 import SQL_SQ8_TOPK, q_sq8_topk

    d = _sorted(q_sq8_topk(SF).to_pandas())
    o = con.execute(SQL_SQ8_TOPK).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_sq8_topk_invariants(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext32 import K, N_QUERIES, q_sq8_topk

    df = q_sq8_topk(SF).to_pandas()
    assert set(df["query_id"]) == set(range(N_QUERIES))
    for qid, g in df.groupby("query_id"):
        g = g.sort_values("rank")
        assert list(g["rank"]) == list(range(1, K + 1))
        # rank 1 is the query itself at distance 0 (codes are deterministic)
        assert g.iloc[0]["vec_id"] == qid and g.iloc[0]["d2"] == 0
        # distances ascend; ties broken by vec_id
        d2 = g["d2"].to_numpy()
        vid = g["vec_id"].to_numpy()
        assert (np.diff(d2) >= 0).all()
        same = np.diff(d2) == 0
        assert (np.diff(vid)[same] > 0).all()


def test_sq8_quantization_brute_force(ray_session):
    """The distributed min/max + quantize pipeline == a single-process numpy
    replay, and SQ8 ranking tracks true float L2 on the raw vectors (top-1
    neighbour of each query, excluding self, is within the SQ8 top-k)."""
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.sim import embedding_matrix
    from polylabel_rs_ray.pipelines.queries_ext32 import (
        _minmax, _quantize, q_sq8_topk,
    )

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    m = embedding_matrix(t)
    mn, mx = _minmax(SF)
    assert np.array_equal(mn, m.min(axis=0))
    assert np.array_equal(mx, m.max(axis=0))

    span = np.where(mx > mn, mx - mn, 1.0)
    codes = _quantize(m, mn, span)
    assert codes.min() >= 0 and codes.max() <= 255

    topk = q_sq8_topk(SF).to_pandas()
    for qid in range(4):
        true_d = ((m - m[qid]) ** 2).sum(axis=1)
        true_d[qid] = np.inf
        nn = int(np.argmin(true_d))
        got = set(topk[topk["query_id"] == qid]["vec_id"])
        assert nn in got
