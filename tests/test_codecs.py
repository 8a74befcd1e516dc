"""Real media decode: codecs (PPM/WAV/Y4M), box resize vs brute force,
and the decode="real" stage paths."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from polylabel_rs_ray.pipelines.codecs import (
    box_resize,
    decode_ppm,
    decode_wav,
    decode_y4m,
    encode_ppm,
    encode_wav,
    encode_y4m,
    ref_key,
    synth_media,
)


def test_ppm_round_trip_and_header_comments():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (21, 47, 3), dtype=np.uint8)
    assert np.array_equal(decode_ppm(encode_ppm(img)), img)
    # whitespace/comment-tolerant header parse
    data = b"P6\n# comment line\n5 3\n255\n" + bytes(45)
    assert decode_ppm(data).shape == (3, 5, 3)
    with pytest.raises(ValueError):
        decode_ppm(b"P5\n1 1\n255\n\x00")


def test_wav_round_trip_and_chunk_walk():
    rng = np.random.default_rng(2)
    pcm = rng.integers(-(2 ** 15), 2 ** 15, 12345, dtype=np.int16)
    s, rate = decode_wav(encode_wav(pcm, 22050))
    assert rate == 22050
    assert np.array_equal(s, pcm)
    # odd-sized unknown chunk before fmt/data must be skipped (word-aligned)
    body = encode_wav(pcm[:10], 8000)
    junk = b"JUNK" + (3).to_bytes(4, "little") + b"abc" + b"\x00"
    data = body[:12] + junk + body[12:]
    riff = b"RIFF" + (len(data) - 8).to_bytes(4, "little") + data[8:]
    s2, r2 = decode_wav(riff)
    assert r2 == 8000 and np.array_equal(s2, pcm[:10])


def test_y4m_round_trip():
    rng = np.random.default_rng(3)
    frames = rng.integers(0, 256, (7, 16, 24), dtype=np.uint8)
    f2, fps = decode_y4m(encode_y4m(frames, 25))
    assert fps == 25
    assert np.array_equal(f2, frames)


def _brute_resize(img: np.ndarray, W: int, H: int) -> np.ndarray:
    img = np.asarray(img)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[:, :, None]
    h, w, c = img.shape
    out = np.empty((H, W, c), np.uint8)
    for i in range(H):
        r0 = (i * h) // H
        r1 = min(max(((i + 1) * h) // H, r0 + 1), h)
        for j in range(W):
            c0 = (j * w) // W
            c1 = min(max(((j + 1) * w) // W, c0 + 1), w)
            block = img[r0:r1, c0:c1].astype(np.int64)
            s = block.sum(axis=(0, 1))
            area = (r1 - r0) * (c1 - c0)
            out[i, j] = (s + area // 2) // area
    return out[:, :, 0] if squeeze else out


@pytest.mark.parametrize("h,w,H,W", [
    (16, 24, 18, 32),   # FrameSampler's upscale shape
    (100, 77, 10, 7),   # non-divisible downscale
    (3, 4, 9, 13),      # pure upscale
    (64, 64, 64, 64),   # identity
    (49, 33, 64, 64),   # ImageResizer's mixed case
])
def test_box_resize_matches_brute_force(h, w, H, W):
    rng = np.random.default_rng(h * 1000 + w)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    assert np.array_equal(box_resize(img, W, H), _brute_resize(img, W, H))
    mono = rng.integers(0, 256, (h, w), dtype=np.uint8)
    assert np.array_equal(box_resize(mono, W, H), _brute_resize(mono, W, H))


def test_synth_media_params_are_md5_replayable():
    ref = "media://11/3"
    m = ref_key(ref)
    img = decode_ppm(synth_media(ref, "image"))
    assert img.shape == (16 + (m // 49) % 49, 16 + m % 49, 3)
    assert (img.reshape(-1, 3) == [m % 256, (m // 256) % 256, (m // 65536) % 256]).all()
    pcm, rate = decode_wav(synth_media(ref, "audio"))
    assert rate == 8000 and len(pcm) == 4000 + m % 12001 and (pcm == m % 2001).all()
    frames, fps = decode_y4m(synth_media(ref, "video"))
    assert fps == 12 and frames.shape == (2 + m % 15, 16, 24)
    assert frames[0, 0, 0] == m % 256
    assert frames[-1, 0, 0] == (m + len(frames) - 1) % 256


def _span_batch(kind: str, refs: list[str]) -> pa.Table:
    return pa.table({
        "doc_num": pa.array(range(len(refs)), type=pa.int64()),
        "span_offset": pa.array([0] * len(refs), type=pa.int64()),
        "kind": pa.array([kind] * len(refs), type=pa.string()),
        "media_ref": pa.array(refs, type=pa.string()),
    })


def test_audio_chunker_real_duration_derived():
    """Real chunk count comes from the DECODED sample count, not the ref
    hash (the fake path's stand-in)."""
    from polylabel_rs_ray.pipelines.media import AudioChunker

    def fetch(ref, kind):
        n = {"a": 4000, "b": 4001, "c": 12000}[ref]
        return encode_wav(np.full(n, 7, dtype=np.int16), 8000)

    ch = AudioChunker(chunk_s=0.5, decode="real", fetch=fetch)
    out = ch(_span_batch("audio", ["a", "b", "c"]))
    per_ref = dict(zip(*np.unique(out.column("doc_num").to_numpy(),
                                  return_counts=True)))
    assert per_ref == {0: 1, 1: 2, 2: 3}  # ceil(n / 4000)
    # last chunk of "b" is the 1-sample remainder zero-padded to 4000
    pcm_b_last = np.frombuffer(out.column("pcm").to_pylist()[2], dtype="<i2")
    assert pcm_b_last[0] == 7 and (pcm_b_last[1:] == 0).all()
    assert out.column("total_samples").to_pylist()[:2] == [4000, 4001]
    assert set(out.column("sample_rate").to_pylist()) == {8000}


def test_image_resizer_real_dims_from_header():
    from polylabel_rs_ray.pipelines.media import ImageResizer

    grad = (np.arange(40 * 30 * 3, dtype=np.int64) % 256).astype(np.uint8)
    img = grad.reshape(30, 40, 3)

    rz = ImageResizer(width=8, height=6, decode="real",
                      fetch=lambda ref, kind: encode_ppm(img))
    out = rz(_span_batch("image", ["x"]))
    assert out.column("orig_width").to_pylist() == [40]
    assert out.column("orig_height").to_pylist() == [30]
    got = np.frombuffer(out.column("rgb").to_pylist()[0], np.uint8).reshape(6, 8, 3)
    assert np.array_equal(got, _brute_resize(img, 8, 6))


def test_frame_sampler_real_even_sampling():
    from polylabel_rs_ray.pipelines.media import FrameSampler

    frames = np.stack([np.full((16, 24), v, np.uint8) for v in (10, 20, 30, 40, 50, 60, 70)])
    fs = FrameSampler(n_frames=4, width=32, height=18, decode="real",
                      fetch=lambda ref, kind: encode_y4m(frames, 12))
    out = fs(_span_batch("video", ["v"]))
    assert out.column("src_frame").to_pylist() == [0, 1, 3, 5]  # (k*7)//4
    assert out.column("n_src_frames").to_pylist() == [7, 7, 7, 7]
    vals = [np.frombuffer(p, np.uint8)[0] for p in out.column("frame").to_pylist()]
    assert vals == [10, 20, 40, 60]  # solid frames survive resize exactly
    assert all(len(p) == 32 * 18 * 3 for p in out.column("frame").to_pylist())


def test_media_featurizer_real_sniffs_all_three():
    from polylabel_rs_ray.pipelines.media import MediaFeaturizer

    feats = {}

    f = MediaFeaturizer(decode="real")  # default fetch = synth_media store
    for kind in ("image", "audio", "video"):
        batch = _span_batch(kind, [f"media://5/{k}" for k in (1, 2)])
        out = f(batch)
        vec = np.asarray(out.column("features").to_pylist())
        assert vec.shape == (2, 8)
        feats[kind] = vec
    assert feats["image"][0, 0] == 1.0
    assert feats["audio"][0, 0] == 2.0
    assert feats["video"][0, 0] == 3.0
    # content-derived: audio mean-abs feature equals amp/32768 exactly
    m = ref_key("media://5/1")
    assert feats["audio"][0, 3] == (m % 2001) / 32768.0


def test_real_decode_queries_registered_with_oracles():
    from polylabel_rs_ray.pipelines.queries import build_oracles, build_queries

    q, o = build_queries(), build_oracles()
    for name in ("image_decode_stats", "audio_decode_stats", "video_decode_stats"):
        assert name in q and name in o


def test_decoder_swap_seam(ray_session):
    """The JPEG/H.264 deployment swap is a CONSTRUCTOR-ARGUMENT change,
    not a stage rewrite (VERDICT r4 item 8): inject a fake PIL-style JPEG
    decoder + content store through the fetch/extra_decoders seam and the
    unchanged stage decodes through it — including end-to-end via
    map_batches over the configured instance, the exact shape a real
    deployment configures."""
    import ray

    from polylabel_rs_ray.pipelines.media import MEDIA_FEATURE_DIM, MediaFeaturizer

    JPEG_MAGIC = b"\xff\xd8\xff"

    def fake_jpeg_store(ref, kind):
        # payload: JPEG magic + fake 2-byte dims + "pixel" byte
        n = sum(ref.encode())
        return JPEG_MAGIC + bytes([n % 256, (n * 7) % 256, (n * 13) % 256])

    def fake_pil_decode(data):
        # a PIL-ish decoder: reads dims + mean pixel out of the payload
        w, h, mean = data[3], data[4], data[5]
        out = np.zeros(MEDIA_FEATURE_DIM)
        out[:4] = [9.0, w / 255.0, h / 255.0, mean / 255.0]
        return out

    # direct: the unchanged stage routes JPEG payloads through the swap
    f = MediaFeaturizer(decode="real", fetch=fake_jpeg_store,
                        extra_decoders=[(JPEG_MAGIC, fake_pil_decode)])
    batch = _span_batch("image", ["img://1", "img://2"])
    feats = np.asarray(f(batch).column("features").to_pylist())
    assert feats.shape == (2, MEDIA_FEATURE_DIM)
    assert (feats[:, 0] == 9.0).all()
    expect0 = fake_pil_decode(fake_jpeg_store("img://1", "image"))
    assert np.array_equal(feats[0], expect0)

    # end-to-end: the same swap as the instance a map_batches task runs —
    # a deployment's one-line config
    ds = ray.data.from_arrow(_span_batch("image", [f"img://{i}" for i in range(6)]))
    out = ds.map_batches(
        MediaFeaturizer(decode="real", fetch=fake_jpeg_store,
                        extra_decoders=[(JPEG_MAGIC, fake_pil_decode)]),
        batch_format="pyarrow",
    ).to_pandas()
    got = np.asarray(out["features"].tolist())
    assert got.shape == (6, MEDIA_FEATURE_DIM) and (got[:, 0] == 9.0).all()

    # builtins unaffected: a PPM payload still takes the stdlib decoder
    f2 = MediaFeaturizer(decode="real",
                         extra_decoders=[(JPEG_MAGIC, fake_pil_decode)])
    ppm = np.asarray(
        f2(_span_batch("image", ["media://5/1"])).column("features").to_pylist())
    assert ppm[0, 0] == 1.0  # the PPM branch's kind tag


def test_decoder_magic_must_be_nonempty_bytes():
    """An empty magic would match every payload and shadow the builtin
    codecs; a non-bytes magic would never match.  Both are rejected when
    the stage is built, not discovered from wrong features later."""
    import pytest

    from polylabel_rs_ray.pipelines.media import MediaFeaturizer

    def decode(data):
        return np.zeros(1)

    for magic in (b"", "\xff\xd8\xff", None):
        with pytest.raises(ValueError):
            MediaFeaturizer(decode="real", extra_decoders=[(magic, decode)])
    MediaFeaturizer(decode="real", extra_decoders=[(b"\xff\xd8\xff", decode)])
