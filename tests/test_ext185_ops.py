"""Extension batch 185: percolation scan + user h-index."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_percolation_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext185 import (
        _sql_tile_percolation_scan, q_tile_percolation_scan,
    )

    d = q_tile_percolation_scan(SF).to_pandas()
    o = con.execute(_sql_tile_percolation_scan()).df()
    assert len(d) == len(o) == 8
    assert _norm(d).equals(_norm(o))


def test_percolation_monotonicity_and_bfs_twin(ray_session):
    """n_open and crossing flags are monotone non-increasing in t, and
    an independent BFS recomputes every row."""
    from collections import deque

    from polylabel_rs_ray.pipelines.queries_ext159 import _lattice_res
    from polylabel_rs_ray.pipelines.queries_ext185 import (
        PERC_RES, q_tile_percolation_scan,
    )

    d = q_tile_percolation_scan(SF).to_pandas().sort_values("t")
    assert (np.diff(d["n_open"]) <= 0).all()
    assert (np.diff(d["crosses_lr"]) <= 0).all()
    assert (np.diff(d["crosses_tb"]) <= 0).all()
    lat = _lattice_res(SF, PERC_RES)
    n = lat.shape[0]
    for r in d.itertuples():
        open_ = lat >= int(r.t)
        assert int(r.n_open) == int(open_.sum())

        def crosses(seed_cells, target):
            seen = set(seed_cells)
            dq = deque(seed_cells)
            while dq:
                x, y = dq.popleft()
                if target((x, y)):
                    return 1
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    u, v = x + dx, y + dy
                    if 0 <= u < n and 0 <= v < n and open_[u, v] \
                            and (u, v) not in seen:
                        seen.add((u, v))
                        dq.append((u, v))
            return 0

        left = [(0, y) for y in range(n) if open_[0, y]]
        top = [(x, 0) for x in range(n) if open_[x, 0]]
        assert int(r.crosses_lr) == crosses(left, lambda c: c[0] == n - 1)
        assert int(r.crosses_tb) == crosses(top, lambda c: c[1] == n - 1)


def test_h_index_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext185 import (
        SQL_USER_H_INDEX, q_user_h_index,
    )

    d = q_user_h_index(SF).to_pandas()
    o = con.execute(SQL_USER_H_INDEX).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))
    assert (d["h_index"] >= 1).all()


def test_h_index_definition(ray_session, con):
    """Definitional recheck: h is the LARGEST h with ≥h days of ≥h
    events — both the attainment and the maximality side."""
    from polylabel_rs_ray.pipelines.queries_ext185 import q_user_h_index

    d = q_user_h_index(SF).to_pandas().set_index("user_id")
    pd_counts = con.execute("""
        SELECT user_id, COUNT(*) n FROM events
        GROUP BY user_id, epoch_us(ts) // 86400000000""").df()
    for uid, grp in pd_counts.groupby("user_id"):
        counts = sorted(grp["n"].astype(int), reverse=True)
        h = int(d.loc[uid, "h_index"])
        assert sum(1 for c in counts if c >= h) >= h
        assert sum(1 for c in counts if c >= h + 1) < h + 1
        assert int(d.loc[uid, "n_days"]) == len(counts)
