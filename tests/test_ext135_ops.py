"""Extension batch 135: audio bucket dedup + video brightness slope."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_audio_buckets_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext135 import (
        SQL_AUDIO_BUCKET_DEDUP, q_audio_bucket_dedup,
    )

    d = q_audio_bucket_dedup(SF).to_pandas()
    o = con.execute(SQL_AUDIO_BUCKET_DEDUP).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_audio_buckets_store_twin(ray_session):
    """Twin via the content-store arithmetic (ref_key), no decode: the
    engine's decoded buckets must equal the parameter buckets."""
    from collections import Counter

    import pandas as pd

    from polylabel_rs_ray.pipelines.codecs import (
        AMP_RANGE, AUD_BASE, AUD_RANGE, ref_key,
    )
    from polylabel_rs_ray.pipelines.queries_ext135 import (
        AMP_BUCKET, DUR_BUCKET, q_audio_bucket_dedup,
    )

    d = q_audio_bucket_dedup(SF).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    cnt: Counter = Counter()
    for doc_id in docs["doc_id"]:
        for j in range(doc_id % 8 + 1):
            if (doc_id + j) % 4 != 2:
                continue
            m = ref_key(f"media://{doc_id}/{j}")
            n = AUD_BASE + m % AUD_RANGE
            amp = m % AMP_RANGE
            cnt[(n // DUR_BUCKET, amp // AMP_BUCKET)] += 1
    expect = {k: v for k, v in cnt.items() if v >= 2}
    got = {(int(r.dur_bucket), int(r.amp_bucket)): int(r.n_spans)
           for r in d.itertuples()}
    assert got == expect
    assert all(v >= 2 for v in got.values())


def test_slope_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext135 import (
        SQL_VIDEO_BRIGHTNESS_SLOPE, q_video_brightness_slope,
    )

    d = q_video_brightness_slope(SF).to_pandas()
    o = con.execute(SQL_VIDEO_BRIGHTNESS_SLOPE).df()
    assert len(d) == len(o) > 0
    assert _norm(d).equals(_norm(o))


def test_slope_identities(ray_session):
    """Non-wrapping videos ramp by exactly +1/frame: slope_num =
    Σ(2f−(k−1))·(c+f) = Σ(2f−(k−1))·f = k(k²−1)/6·... verify via the
    closed form; wrapping videos are strictly below it."""
    from polylabel_rs_ray.pipelines.queries_ext135 import (
        q_video_brightness_slope,
    )

    d = q_video_brightness_slope(SF).to_pandas()
    k = d["n_frames"].to_numpy().astype(np.int64)
    # Σ(2f−(k−1))·(c+f) = k(k²−1)/6 for the unit ramp (c cancels)
    ramp = k * (k * k - 1) // 6
    assert (d["slope_num"] <= ramp).all()
    # a constant sequence would give 0; the +1 ramp dominates unless the
    # 255→0 wrap lands inside — some of each must exist on real data
    assert (d["slope_num"] == ramp).any()
    assert (d["slope_num"] < ramp).any()
    assert (d["n_frames"] >= 2).all()
