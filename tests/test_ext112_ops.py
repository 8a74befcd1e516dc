"""Extension batch 112: peak concurrency sweep + min-area rectangle."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_peak_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext112 import (
        SQL_PEAK_CONCURRENCY, q_peak_concurrency,
    )

    d = q_peak_concurrency(SF).to_pandas()
    o = con.execute(SQL_PEAK_CONCURRENCY).df()
    assert len(d) == len(o) == 1
    assert _norm(d).equals(_norm(o))


def test_peak_partition_invariance(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext112 import q_peak_concurrency

    a = _norm(q_peak_concurrency(SF, n_parts=2).to_pandas())
    b = _norm(q_peak_concurrency(SF, n_parts=13).to_pandas())
    assert a.equals(b)


def test_peak_vs_brute_force(ray_session, con):
    """Count active (user, day) intervals directly at the reported
    instant — the definitionally-correct stabbing count — and verify no
    instant one microsecond earlier beats it."""
    from polylabel_rs_ray.pipelines.queries_ext112 import q_peak_concurrency

    d = q_peak_concurrency(SF).to_pandas()
    peak, ts = int(d["peak"].iloc[0]), int(d["peak_ts_us"].iloc[0])
    stab = con.execute(f"""
        WITH iv AS (
          SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                 MIN(epoch_us(ts)) s, MAX(epoch_us(ts)) e
          FROM events GROUP BY 1, 2)
        SELECT COUNT(*) FROM iv WHERE s <= {ts} AND {ts} <= e""").fetchone()[0]
    assert stab == peak >= 1


def test_rect_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext112 import (
        _sql_min_area_rect_stats, q_min_area_rect_stats,
    )

    d = q_min_area_rect_stats(SF).to_pandas()
    o = con.execute(_sql_min_area_rect_stats()).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_rect_contains_hull_area(ray_session):
    """The enclosing rectangle's area is >= the hull's area (containment)
    and >= the min-width strip's width * diameter lower bound is NOT
    asserted (incomparable); hull-area containment is the sound pin."""
    import numpy as np

    from polylabel_rs_ray.pipelines.geom_ops import convex_hull
    from polylabel_rs_ray.pipelines.queries_ext import (
        _dyadic_rings_ds, _norm_exterior,
    )
    from polylabel_rs_ray.pipelines.queries_ext112 import (
        q_min_area_rect_stats,
    )
    from polylabel_rs_ray.stages.label import rings_to_numpy

    d = q_min_area_rect_stats(SF).to_pandas()
    first = d.drop_duplicates("fixture_idx").set_index("doc_num")
    batches = _dyadic_rings_ds(SF).to_pandas()
    import pyarrow as pa

    for doc_num, row in first.iterrows():
        rings_cell = batches.loc[batches["doc_num"] == doc_num, "rings"]
        polys = rings_to_numpy(pa.array(list(rings_cell)))
        ext = _norm_exterior(polys[0])
        hull = convex_hull(ext)
        h = np.asarray(hull, dtype=np.float64)
        x, y = h[:, 0], h[:, 1]
        area2 = abs(float(np.dot(x, np.roll(y, -1)) -
                          np.dot(y, np.roll(x, -1))))  # 2*hull area
        # rect_area >= hull_area  <=>  2*num >= area2 * den
        assert 2.0 * row["rect_area_num"] >= area2 * row["rect_area_den"] - 1e-9
