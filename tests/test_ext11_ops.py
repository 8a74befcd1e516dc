"""Extension operators batch 12 (queries_ext11): shape metrology —
diameter/perimeter kernels and the dyadic-constant oracle."""

import duckdb
import numpy as np

SF = "/root/testdata/sf0.001"


def test_diameter_stats_match_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext11 import (
        _sql_diameter_stats,
        q_diameter_stats,
    )

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    d = q_diameter_stats(SF).to_pandas()
    o = con.execute(_sql_diameter_stats()).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b)
    assert (a["diam_sq"] > 0).all() and (a["perimeter"] > 0).all()


def test_diameter_kernel_properties():
    from polylabel_rs_ray.pipelines.geom_ops import ring_diameter_sq, ring_perimeter

    rng = np.random.default_rng(9)
    for _ in range(20):
        pts = rng.uniform(-50, 50, size=(rng.integers(3, 40), 2))
        dsq = ring_diameter_sq(pts)
        # brute force over ALL points (not just hull) agrees
        dx = pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = pts[:, 1][:, None] - pts[:, 1][None, :]
        assert dsq == (dx * dx + dy * dy).max()
        # perimeter >= 2 * diameter for any closed curve
        assert ring_perimeter(pts) >= 2.0 * np.sqrt(dsq) - 1e-9
    # translation invariance is exact on integer-offset dyadic rings
    sq = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]])
    for off in [(17.0, -9.0), (1024.0, 4096.0)]:
        t = sq + np.array(off)
        t = t - t.min(axis=0)
        assert ring_diameter_sq(t) == ring_diameter_sq(sq)
        assert ring_perimeter(t) == ring_perimeter(sq)
