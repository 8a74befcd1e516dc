"""Extension batch 23: cross-modal document profile."""

import numpy as np

SF = "/root/testdata/sf0.001"


def test_doc_media_profile_consistent_with_explode(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext23 import q_doc_media_profile
    from polylabel_rs_ray.sources.docs import read_docs
    from polylabel_rs_ray.pipelines.media import explode_media_spans

    prof = q_doc_media_profile(SF).to_pandas().set_index("doc_num")
    media = read_docs(SF).map_batches(
        explode_media_spans, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    by_kind = media.groupby(["doc_num", "kind"]).size().unstack(fill_value=0)
    for kind in ("image", "audio", "video"):
        want = by_kind[kind] if kind in by_kind else None
        for doc, row in prof.iterrows():
            expect = int(want.get(doc, 0)) if want is not None else 0
            assert row[f"n_{kind}"] == expect
    # span counts add up and media bytes are positive iff media spans exist
    assert (prof["n_spans"] == prof[["n_text", "n_image", "n_audio",
                                     "n_video"]].sum(axis=1)).all()
    has_media = (prof[["n_image", "n_audio", "n_video"]].sum(axis=1) > 0)
    assert ((prof["media_bytes"] > 0) == has_media).all()
