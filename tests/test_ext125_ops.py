"""Extension batch 125: SQ8 1-NN label audit + dimension profile."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{SF}/embeddings.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_1nn_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext125 import (
        SQL_SQ8_1NN_LABEL_AUDIT, q_sq8_1nn_label_audit,
    )

    d = q_sq8_1nn_label_audit(SF).to_pandas()
    o = con.execute(SQL_SQ8_1NN_LABEL_AUDIT).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_1nn_brute_twin(ray_session):
    """Dense numpy all-pairs twin (no broadcast machinery, no packed
    keys): same quantization, full distance matrix, lexsort argmin."""
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.sim import embedding_matrix
    from polylabel_rs_ray.pipelines.queries_ext125 import (
        q_sq8_1nn_label_audit,
    )
    from polylabel_rs_ray.pipelines.queries_ext32 import _minmax, _quantize

    d = q_sq8_1nn_label_audit(SF).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    t = pq.read_table(f"{SF}/embeddings.parquet")
    mn, mx = _minmax(SF)
    span = np.where(mx > mn, mx - mn, 1.0)
    c = _quantize(embedding_matrix(t), mn, span)
    ids = t.column("vec_id").to_numpy().astype(np.int64)
    labels = t.column("label").to_numpy().astype(np.int64)
    order = np.argsort(ids)
    c, ids, labels = c[order], ids[order], labels[order]
    g = c @ c.T
    sq = np.diag(g)
    d2 = sq[:, None] + sq[None, :] - 2 * g
    np.fill_diagonal(d2, np.iinfo(np.int64).max)
    best = np.argmin(d2, axis=1)  # ids sorted asc -> first min = smallest id
    assert (d["nn_id"].to_numpy() == ids[best]).all()
    assert (d["nn_d2"].to_numpy() == d2[np.arange(len(ids)), best]).all()
    assert (d["same_label"].to_numpy()
            == (labels == labels[best]).astype(np.int64)).all()
    # the audit must be non-degenerate: some neighbors agree, some don't
    assert 0 < d["same_label"].sum() < len(d)


def test_dim_profile_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext125 import (
        SQL_SQ8_DIM_PROFILE, q_sq8_dim_profile,
    )

    d = q_sq8_dim_profile(SF).to_pandas()
    o = con.execute(SQL_SQ8_DIM_PROFILE).df()
    assert len(d) == len(o) == 64
    assert _norm(d).equals(_norm(o))


def test_dim_profile_bounds(ray_session):
    """Codes live in [0,255]: sums bounded by 255·n, square-sums by
    255·code_sum; every dimension covers all n vectors."""
    from polylabel_rs_ray.pipelines.queries_ext125 import q_sq8_dim_profile

    d = q_sq8_dim_profile(SF).to_pandas()
    n = d["n"].iloc[0]
    assert (d["n"] == n).all()
    assert (d["code_sum"] <= 255 * n).all()
    assert (d["code_sq_sum"] <= 255 * d["code_sum"]).all()
    assert (d["code_sq_sum"] >= d["code_sum"]).all()  # code² >= code on ints


def test_1nn_audit_shard_invariant(ray_session):
    """The sharded running-min scorer is shard-count invariant: one big
    shard == many small shards (pins the partition-local 1-NN + merge
    against the fused single-matrix semantics)."""
    from polylabel_rs_ray.pipelines.queries_ext125 import q_sq8_1nn_label_audit

    def norm(df):
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    a = norm(q_sq8_1nn_label_audit(SF, n_shards=1).to_pandas())
    b = norm(q_sq8_1nn_label_audit(SF, n_shards=7).to_pandas())
    assert len(a) == len(b) > 0
    assert a.equals(b)
