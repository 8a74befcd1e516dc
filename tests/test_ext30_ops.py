"""Extension batch 30: pure-stdlib PNG codec + PNG-encoded raster tiles."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------- codec

RNG = np.random.default_rng(20260818)

CASES = [
    RNG.integers(0, 256, (13, 17), dtype=np.uint8),          # gray8
    RNG.integers(0, 1 << 16, (9, 5), dtype=np.uint16),       # gray16
    RNG.integers(0, 256, (7, 11, 3), dtype=np.uint8),        # RGB
    RNG.integers(0, 256, (6, 4, 4), dtype=np.uint8),         # RGBA
    np.zeros((1, 1), dtype=np.uint8),                        # minimal
    np.full((3, 200), 65535, dtype=np.uint16),               # wide, saturated
]


@pytest.mark.parametrize("filt", ["none", "sub", "up", "average", "paeth"])
def test_png_round_trip_all_layouts_all_filters(filt):
    from polylabel_rs_ray.pipelines.png import decode_png, encode_png

    for arr in CASES:
        out = decode_png(encode_png(arr, filter=filt))
        assert out.shape == arr.shape and out.dtype == arr.dtype
        assert np.array_equal(out, arr)


def test_png_structure_and_determinism():
    import struct
    import zlib

    from polylabel_rs_ray.pipelines.png import SIGNATURE, encode_png

    arr = RNG.integers(0, 256, (16, 16), dtype=np.uint8)
    data = encode_png(arr)
    assert data[:8] == SIGNATURE
    # IHDR is first chunk, correct dims, IEND last
    (ln,) = struct.unpack(">I", data[8:12])
    assert data[12:16] == b"IHDR" and ln == 13
    w, h, bd, ct = struct.unpack(">IIBB", data[16:26])
    assert (w, h, bd, ct) == (16, 16, 8, 0)
    assert data[-8:-4] == b"IEND"
    # every chunk CRC validates
    pos = 8
    while pos < len(data):
        (ln,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + ln]
        (crc,) = struct.unpack(">I", data[pos + 8 + ln:pos + 12 + ln])
        assert zlib.crc32(tag + payload) & 0xFFFFFFFF == crc
        pos += 12 + ln
    # byte-deterministic (resume/fingerprint-safe)
    assert encode_png(arr) == data


def test_png_rejects_garbage():
    from polylabel_rs_ray.pipelines.png import decode_png, encode_png

    with pytest.raises(ValueError):
        decode_png(b"not a png at all")
    good = encode_png(np.zeros((2, 2), dtype=np.uint8))
    corrupt = good[:20] + bytes([good[20] ^ 0xFF]) + good[21:]
    with pytest.raises(ValueError):
        decode_png(corrupt)
    with pytest.raises(ValueError):
        encode_png(np.zeros((2, 2), dtype=np.float64))


def test_count_grid_gray16_vs_rgba8_gate_and_exactness():
    from polylabel_rs_ray.pipelines.png import decode_count_grid, encode_count_grid

    g = RNG.integers(0, 3000, (64, 64)).astype(np.uint32)
    png, mode = encode_count_grid(g)
    assert mode == "gray16"
    assert np.array_equal(decode_count_grid(png), g)

    g2 = g.copy()
    g2[5, 7] = (1 << 27) + 12345  # count too big for 16-bit -> exact RGBA path
    png2, mode2 = encode_count_grid(g2)
    assert mode2 == "rgba8"
    assert np.array_equal(decode_count_grid(png2), g2)


# ------------------------------------------------------------- pipeline

def test_tile_png_stats_matches_raw_raster(ray_session):
    """Decoded-PNG statistics == statistics of the raw uint32 rasters the
    renderer produced (the lossless-chain invariant, engine-side)."""
    from polylabel_rs_ray.pipelines.queries import build_queries
    from polylabel_rs_ray.pipelines.queries_ext30 import q_tile_png_stats

    png_df = q_tile_png_stats(SF).to_pandas().set_index("tile_id").sort_index()
    raw_df = (
        build_queries()["render_tiles"](SF).to_pandas().set_index("tile_id").sort_index()
    )
    assert list(png_df.index) == list(raw_df.index) and len(png_df) > 0
    assert (png_df["decoded_sum"] == raw_df["raster_sum"]).all()
    assert (png_df["decoded_nonzero"] == raw_df["raster_nonzero"]).all()
    assert (png_df["png_w"] == 64).all() and (png_df["png_h"] == 64).all()
    assert set(png_df["mode"]) <= {"gray16", "rgba8"}
