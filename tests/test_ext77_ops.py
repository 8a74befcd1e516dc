"""Extension batch 77: banded theta self-join + l-diversity audit."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_burst_pairs_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext77 import (
        SQL_ORDER_BURST_PAIRS, q_order_burst_pairs,
    )

    d = q_order_burst_pairs(SF).to_pandas()
    o = con.execute(SQL_ORDER_BURST_PAIRS).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_burst_pairs_partition_invariance(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext77 import q_order_burst_pairs

    a = _norm(q_order_burst_pairs(SF, n_parts=1).to_pandas())
    b = _norm(q_order_burst_pairs(SF, n_parts=7).to_pandas())
    assert a.equals(b)


def test_burst_pairs_brute_force_one_user(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext77 import (
        BURST_WINDOW_US, q_order_burst_pairs,
    )

    d = q_order_burst_pairs(SF).to_pandas()
    uid = int(d["c_custkey"].iloc[0])
    ts = con.execute(
        f"SELECT CAST(epoch_us(o_orderdate) AS BIGINT) AS t FROM orders "
        f"WHERE o_custkey = {uid} ORDER BY t").df()["t"].tolist()
    pairs = [(a, b) for i, a in enumerate(ts) for b in ts[i + 1:]
             if 0 < b - a <= BURST_WINDOW_US]
    row = d[d["c_custkey"] == uid].iloc[0]
    assert int(row["n_burst_pairs"]) == len(pairs)
    assert int(row["min_gap_us"]) == min(b - a for a, b in pairs)


def test_l_diversity_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext77 import (
        SQL_L_DIVERSITY_AUDIT, q_l_diversity_audit,
    )

    d = q_l_diversity_audit(SF)
    o = con.execute(SQL_L_DIVERSITY_AUDIT).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_l_diversity_invariants(ray_session, con):
    """l <= class size, l <= |source domain|, masses sum to the corpus."""
    from polylabel_rs_ray.pipelines.queries_ext77 import q_l_diversity_audit

    d = q_l_diversity_audit(SF)
    n_src = con.execute(
        "SELECT COUNT(DISTINCT source) FROM documents").fetchone()[0]
    total = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert (d["l_distinct_sources"] <= d["class_size"]).all()
    assert (d["l_distinct_sources"] <= n_src).all()
    assert int(d["class_size"].sum()) == total
    assert (d["at_risk"] == (d["l_distinct_sources"] == 1)).all()


def test_distinct_values_matches_driver_scan(ray_session):
    """The distributed-distinct domain helper returns exactly the sorted
    driver-scan result on every column it replaced a scan for."""
    import pyarrow.parquet as pq

    from polylabel_rs_ray.pipelines.agg import distinct_values

    for path, col in [
        (f"{SF}/events.parquet", "event_type"),
        (f"{SF}/documents.parquet", "lang"),
        (f"{SF}/documents.parquet", "source"),
        (f"{SF}/orders.parquet", "o_orderpriority"),
    ]:
        expect = sorted(set(pq.read_table(path, columns=[col])
                            .column(col).to_pylist()))
        assert distinct_values(path, col) == expect and len(expect) > 0
