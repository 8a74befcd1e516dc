"""Extension batch 49: distributed exact Gram matrix."""

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


def test_embedding_gram_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext49 import (
        _sql_embedding_gram, q_embedding_gram,
    )

    d = _sorted(q_embedding_gram(SF).to_pandas())
    o = con.execute(_sql_embedding_gram()).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) == 36  # upper triangle of 8x8
    assert d.equals(o)


def test_embedding_gram_brute_force(ray_session):
    """Single-process numpy replay of quantize + X^T X equals the
    distributed partial-sum, and the matrix is PSD as a Gram must be."""
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.sim import embedding_matrix
    from polylabel_rs_ray.pipelines.queries_ext32 import _minmax, _quantize
    from polylabel_rs_ray.pipelines.queries_ext49 import (
        GRAM_DIMS, q_embedding_gram,
    )

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    mn, mx = _minmax(SF)
    span = np.where(mx > mn, mx - mn, 1.0)
    codes = _quantize(embedding_matrix(t), mn, span)[:, :GRAM_DIMS]
    ref = codes.T @ codes

    got = q_embedding_gram(SF).to_pandas()
    full = np.zeros((GRAM_DIMS, GRAM_DIMS), dtype=np.int64)
    for r in got.itertuples():
        full[int(r.d1), int(r.d2)] = r.gram
        full[int(r.d2), int(r.d1)] = r.gram
    assert np.array_equal(full, ref)
    ev = np.linalg.eigvalsh(full.astype(np.float64))
    assert ev.min() > -1e-6 * max(ev.max(), 1.0)
