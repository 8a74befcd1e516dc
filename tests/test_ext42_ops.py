"""Extension batch 42: video scene-cut detection on real decode."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_video_scene_cuts_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext42 import (
        SQL_VIDEO_SCENE_CUTS, q_video_scene_cuts,
    )

    d = _sorted(q_video_scene_cuts(SF).to_pandas())
    o = con.execute(SQL_VIDEO_SCENE_CUTS).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)
    # both classes occur: some videos wrap (a cut), most don't
    assert (d["n_cuts"] == 1).any()
    assert (d["n_cuts"] == 0).any()


def test_scene_cut_detector_on_synthetic_stream(ray_session):
    """A hand-built stream with a real hard cut: the detector counts
    exactly the >CUT_DELTA jumps, from decoded bytes."""
    import pyarrow as pa

    from polylabel_rs_ray.pipelines import codecs
    from polylabel_rs_ray.pipelines.queries_ext42 import SceneCutDetector

    frames = np.stack([
        np.full((16, 24), 10, np.uint8),
        np.full((16, 24), 12, np.uint8),   # delta 2: no cut
        np.full((16, 24), 200, np.uint8),  # delta 188: cut
        np.full((16, 24), 201, np.uint8),  # delta 1: no cut
        np.full((16, 24), 100, np.uint8),  # delta 101: cut
    ])
    payload = codecs.encode_y4m(frames, 12)
    det = SceneCutDetector(fetch=lambda ref, kind: payload)
    batch = pa.table({
        "doc_num": pa.array([7], type=pa.int64()),
        "span_offset": pa.array([0], type=pa.int64()),
        "kind": pa.array(["video"], type=pa.string()),
        "media_ref": pa.array(["x"], type=pa.string()),
    })
    out = det(batch)
    assert out.column("n_frames")[0].as_py() == 5
    assert out.column("n_cuts")[0].as_py() == 2
    assert out.column("luma_first")[0].as_py() == 10
    assert out.column("luma_last")[0].as_py() == 100
