"""Extension batches 47-48: audio loudness moments + diversity index."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_audio_rms_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext47 import (
        SQL_AUDIO_RMS_STATS, q_audio_rms_stats,
    )

    d = _sorted(q_audio_rms_stats(SF).to_pandas())
    o = con.execute(SQL_AUDIO_RMS_STATS).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_rms_extractor_on_synthetic_wave(ray_session):
    """A hand-built non-constant PCM clip: moments computed from decoded
    bytes, not the ref hash."""
    import pyarrow as pa

    from polylabel_rs_ray.pipelines import codecs
    from polylabel_rs_ray.pipelines.queries_ext47 import RmsExtractor

    pcm = np.array([3, -4, 0, 12, -7], dtype=np.int16)
    payload = codecs.encode_wav(pcm, 8000)
    ext = RmsExtractor(fetch=lambda ref, kind: payload)
    batch = pa.table({
        "doc_num": pa.array([1], type=pa.int64()),
        "span_offset": pa.array([0], type=pa.int64()),
        "kind": pa.array(["audio"], type=pa.string()),
        "media_ref": pa.array(["x"], type=pa.string()),
    })
    out = ext(batch)
    assert out.column("n_samples")[0].as_py() == 5
    assert out.column("peak_amp")[0].as_py() == 12
    assert out.column("sumsq")[0].as_py() == 9 + 16 + 0 + 144 + 49
    assert out.column("rms")[0].as_py() == float(np.sqrt(218.0 / 5.0))


def test_type_diversity_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext48 import (
        SQL_TYPE_DIVERSITY_PER_USER, q_type_diversity_per_user,
    )

    d = _sorted(q_type_diversity_per_user(SF).to_pandas())
    o = con.execute(SQL_TYPE_DIVERSITY_PER_USER).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)


def test_type_diversity_semantics(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext48 import (
        q_type_diversity_per_user,
    )

    df = q_type_diversity_per_user(SF).to_pandas()
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert len(df) == n_users
    # identity: simpson == 0 iff single type; bounded by 1 - 1/n_types
    assert (df["simpson"] >= 0).all()
    single = df[df["n_types"] == 1]
    assert (single["simpson"] == 0).all() or len(single) == 0
    multi = df[df["n_types"] > 1]
    assert (multi["simpson"] > 0).all()
    assert (df["simpson"] <= 1 - 1.0 / df["n_types"] + 1e-15).all()
    # partition invariance
    a = _sorted(q_type_diversity_per_user(SF, n_parts=1).to_pandas())
    b = _sorted(q_type_diversity_per_user(SF, n_parts=6).to_pandas())
    assert a.equals(b)
