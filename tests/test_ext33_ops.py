"""Extension batch 33: perceptual-hash image dedup over real decode."""

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


def test_image_phash_dups_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext33 import (
        SQL_IMAGE_PHASH_DUPS, q_image_phash_dups,
    )

    d = _sorted(q_image_phash_dups(SF).to_pandas())
    o = con.execute(SQL_IMAGE_PHASH_DUPS).df()
    o = _sorted(o.astype(d.dtypes.to_dict()))
    assert len(d) == len(o) > 0
    assert d.equals(o)
    # the corpus actually exercises dedup: some signature collides
    assert (d["is_dup"] == 1).any()


def test_image_phash_group_invariants(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext33 import q_image_phash_dups

    df = q_image_phash_dups(SF).to_pandas()
    for sig, g in df.groupby("sig"):
        assert (g["n_same"] == len(g)).all()
        keeper = g["media_ref"].min()
        assert (g["keeper"] == keeper).all()
        assert ((g["media_ref"] != keeper) == (g["is_dup"] == 1)).all()
    # exactly one keeper per group
    assert (df["is_dup"] == 0).sum() == df["sig"].nunique()


def test_signature_from_real_decode(ray_session):
    """The signature equals the 4-bit-quantized store color — i.e. the
    decode+resize chain, not the ref hash, produced it."""
    from polylabel_rs_ray.pipelines import codecs
    from polylabel_rs_ray.pipelines.queries_ext33 import (
        PHASH_RES, _signature, q_image_phash_dups,
    )

    df = q_image_phash_dups(SF).to_pandas()
    sample = df.sample(8, random_state=7)
    for _, row in sample.iterrows():
        img = codecs.decode_ppm(codecs.synth_media(row["media_ref"], "image"))
        resized = codecs.box_resize(img, PHASH_RES, PHASH_RES)
        assert _signature(resized) == row["sig"]
        m = codecs.ref_key(row["media_ref"])
        expect = ((m % 256) >> 4 << 8) | ((m // 256 % 256) >> 4 << 4) | (
            m // 65536 % 256 >> 4
        )
        assert row["sig"] == expect


def test_image_phash_partition_invariant(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext33 import q_image_phash_dups

    a = _sorted(q_image_phash_dups(SF, n_parts=1).to_pandas())
    b = _sorted(q_image_phash_dups(SF, n_parts=9).to_pandas())
    assert a.equals(b)
