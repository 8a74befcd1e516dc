"""Extension batch 189: LRU stack distances + FFD bin packing."""

from collections import OrderedDict

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("lineitem", "part"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_lru_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext189 import (
        SQL_LRU_STACK_DISTANCES, q_lru_stack_distances,
    )

    d = q_lru_stack_distances(SF).to_pandas()
    o = con.execute(SQL_LRU_STACK_DISTANCES).df()
    assert len(d) == len(o) > 10
    assert _norm(d).equals(_norm(o))


def test_lru_hit_rates_vs_simulation(ray_session, con):
    """Mattson identity: hits at capacity C == accesses with
    0 <= stack_dist < C, checked against a direct OrderedDict LRU."""
    from polylabel_rs_ray.pipelines.queries_ext189 import (
        LRU_MAX_OKEY, q_lru_stack_distances,
    )

    d = q_lru_stack_distances(SF).to_pandas()
    stream = con.execute(f"""
        SELECT l_partkey FROM lineitem WHERE l_orderkey < {LRU_MAX_OKEY}
        ORDER BY l_orderkey, l_linenumber, l_partkey""").df()
    keys = stream["l_partkey"].tolist()
    first = int(d[d["stack_dist"] == -1]["n_accesses"].sum())
    assert first == len(set(keys))
    assert int(d["n_accesses"].sum()) == len(keys)
    for C in (1, 8, 64):
        cache: OrderedDict = OrderedDict()
        hits = 0
        for k in keys:
            if k in cache:
                hits += 1
                cache.move_to_end(k)
            else:
                if len(cache) >= C:
                    cache.popitem(last=False)
                cache[k] = True
        want = int(d[(d["stack_dist"] >= 0)
                     & (d["stack_dist"] < C)]["n_accesses"].sum())
        assert hits == want, C


def test_ffd_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext189 import (
        _sql_ffd_bin_packing, q_ffd_bin_packing,
    )

    d = q_ffd_bin_packing(SF).to_pandas()
    o = con.execute(_sql_ffd_bin_packing()).df()
    assert len(d) == len(o) == 12
    assert _norm(d).equals(_norm(o))


def test_ffd_validity_and_bound(ray_session, con):
    """No bin over capacity; scalar first-fit replay; bins used within
    the FFD guarantee vs the volume lower bound."""
    from polylabel_rs_ray.pipelines.queries_ext189 import (
        FFD_JOBS, q_ffd_bin_packing,
    )

    d = q_ffd_bin_packing(SF).to_pandas().sort_values("bin")
    cap = int(d["capacity"].iloc[0])
    assert (d["load_cents"] <= cap).all()
    jobs = [int(r[0]) for r in con.execute(f"""
        SELECT CAST(ROUND(p_retailprice*100) AS BIGINT) c FROM part
        ORDER BY c DESC, p_partkey LIMIT {FFD_JOBS}""").fetchall()]
    loads = []
    counts = []
    for c in jobs:
        for b in range(len(loads)):
            if loads[b] + c <= cap:
                loads[b] += c
                counts[b] += 1
                break
        else:
            loads.append(c)
            counts.append(1)
    loads += [0] * (12 - len(loads))
    counts += [0] * (12 - len(counts))
    assert d["load_cents"].tolist() == loads
    assert d["n_items"].tolist() == counts
    used = int((d["load_cents"] > 0).sum())
    lb = -(-sum(jobs) // cap)
    assert lb <= used <= (11 * lb) // 9 + 1
