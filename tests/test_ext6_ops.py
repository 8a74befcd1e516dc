"""Extension operators batch 7 (queries_ext6): iterative PageRank pinned
against a dense numpy power iteration."""

import duckdb
import numpy as np

SF = "/root/testdata/sf0.001"


def _dense_pagerank(node_ids, edges_df, damping, iters):
    V = len(node_ids)
    idx = {n: i for i, n in enumerate(node_ids)}
    W = np.zeros((V, V))
    for a, b, w in edges_df.itertuples(index=False):
        W[idx[a], idx[b]] += w
        W[idx[b], idx[a]] += w
    s = W.sum(axis=1)
    r = np.full(V, 1.0 / V)
    for _ in range(iters):
        rod = np.where(s > 0, r / np.maximum(s, 1e-300), 0.0)
        inflow = W.T @ rod
        dangling = r[s == 0].sum()
        r = (1 - damping) / V + damping * (inflow + dangling / V)
    return r


def test_pagerank_matches_dense_power_iteration(ray_session):
    from polylabel_rs_ray.pipelines.queries import (
        SQL_PART_PAIR_COUNTS,
        q_part_pair_counts,
    )
    from polylabel_rs_ray.pipelines.queries_ext6 import (
        PR_DAMPING,
        PR_ITERS,
        PR_TOPK,
        q_pagerank_parts,
    )

    con = duckdb.connect()
    for t in ["lineitem", "part"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    edges = con.execute(SQL_PART_PAIR_COUNTS).df()
    node_ids = np.sort(
        con.execute("SELECT p_partkey FROM part").df()["p_partkey"].to_numpy()
    ).astype(np.int64)
    want = _dense_pagerank(node_ids, edges, PR_DAMPING, PR_ITERS)

    got = q_pagerank_parts(SF).to_pandas()
    assert len(got) == PR_TOPK
    # ranks sum bound and agreement at every reported node
    pos = np.searchsorted(node_ids, got["p_partkey"].to_numpy())
    assert np.allclose(got["rank"].to_numpy(), want[pos], rtol=1e-9, atol=1e-14)
    # the reported set IS the true top-k (same lexsort tiebreak)
    order = np.lexsort((node_ids, -want))[:PR_TOPK]
    assert set(got["p_partkey"]) == set(node_ids[order])


def test_pagerank_conserves_mass(ray_session):
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.queries import q_part_pair_counts
    from polylabel_rs_ray.pipelines.queries_ext6 import pagerank_dense

    edges = q_part_pair_counts(SF).materialize()
    node_ids = np.sort(
        pq.read_table(f"{SF}/part.parquet", columns=["p_partkey"])
        .column("p_partkey")
        .to_numpy()
        .astype(np.int64)
    )
    r = pagerank_dense(edges, node_ids, iters=3)
    assert abs(r.sum() - 1.0) < 1e-9
    assert (r > 0).all()
