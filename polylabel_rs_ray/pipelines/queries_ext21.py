"""Round-3 extension operators, batch 21: REAL media decode pipelines.

Unlike the bulk media stats queries (fake decode — zero-I/O hash payloads),
these three run the media stages with ``decode="real"``: payload bytes are
fetched from the deterministic content store (``pipelines/codecs.py::
synth_media`` — actual PPM / RIFF-WAV / YUV4MPEG2 encodings) and genuinely
parsed: dimensions come from the PPM header, chunk counts from the decoded
WAV sample count (duration-derived), frame geometry from the Y4M stream.
The content store's parameters are ``md5_number_lower`` arithmetic on the
media_ref, so DuckDB replays every output value exactly — the oracles
therefore verify the full fetch -> decode -> resample -> stats chain, not
just plumbing.  Shape-generality of the box resize (gradients, non-divisible
dims, upscaling) is pinned separately in tests/test_codecs.py against a
brute-force reference.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _media_rows(sf_dir: str):
    from ..sources.docs import read_docs
    from .media import explode_media_spans

    return read_docs(sf_dir).map_batches(
        explode_media_spans, batch_format="pyarrow", zero_copy_batch=True
    )


# --- image: real PPM decode + box resize --------------------------------------

IMG_OUT_W = IMG_OUT_H = 64


def q_image_decode_stats(sf_dir: str):
    """image spans -> fetch PPM -> decode (header-parsed dims) -> 64x64 box
    resize -> per-image channel means from the RESIZED payload.  Small
    batches (decoded images are O(orig_w*orig_h*3) heap each)."""
    from .media import ImageResizer

    resized = _media_rows(sf_dir).map_batches(
        ImageResizer(width=IMG_OUT_W, height=IMG_OUT_H, decode="real"),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=256,
    )

    def stats(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        px = IMG_OUT_W * IMG_OUT_H
        if n:
            flat = np.frombuffer(
                b"".join(batch.column("rgb").to_pylist()), dtype=np.uint8
            ).reshape(n, px, 3).astype(np.int64)
            sums = flat.sum(axis=1)  # exact integer channel sums
            means = sums // px       # exact: payloads are solid-color
        else:
            means = np.empty((0, 3), np.int64)
        return pa.table({
            "doc_num": batch.column("doc_num"),
            "span_offset": batch.column("span_offset"),
            "orig_width": pc.cast(batch.column("orig_width"), pa.int64()),
            "orig_height": pc.cast(batch.column("orig_height"), pa.int64()),
            "mean_r": pa.array(means[:, 0], type=pa.int64()),
            "mean_g": pa.array(means[:, 1], type=pa.int64()),
            "mean_b": pa.array(means[:, 2], type=pa.int64()),
            "rgb_bytes": pa.array(
                np.full(n, px * 3, dtype=np.int64), type=pa.int64()
            ),
        })

    return resized.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


# SQL replay: span j of doc i is an image iff (doc_id+j)%4 = 1; the content
# store synthesizes a solid-color PPM of (16 + m%49) x (16 + m//49%49) with
# color (m%256, m//256%256, m//65536%256), m = md5_number_lower(media_ref)
# (pipelines/codecs.py::synth_media).  The engine's means come from the
# RESIZED payload — box-resizing a solid image is the same solid, so the
# oracle proves decode+resize ran, value-exactly.
SQL_IMAGE_DECODE_STATS = r"""
    WITH sp AS (
      SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
    ), im AS (
      SELECT doc_id, j,
             md5_number_lower('media://' || doc_id || '/' || j) AS m
      FROM sp WHERE (doc_id + j) % 4 = 1
    )
    SELECT doc_id AS doc_num, CAST(j AS BIGINT) AS span_offset,
           CAST(16 + m % 49 AS BIGINT) AS orig_width,
           CAST(16 + (m // 49) % 49 AS BIGINT) AS orig_height,
           CAST(m % 256 AS BIGINT) AS mean_r,
           CAST((m // 256) % 256 AS BIGINT) AS mean_g,
           CAST((m // 65536) % 256 AS BIGINT) AS mean_b,
           CAST(12288 AS BIGINT) AS rgb_bytes
    FROM im
"""


# --- audio: real WAV decode + duration-derived chunking -----------------------

AUD_CHUNK_S = 0.5


def q_audio_decode_stats(sf_dir: str):
    """audio spans -> fetch WAV -> decode (RIFF-parsed rate + samples) ->
    duration-derived 0.5 s chunks -> per-clip rollup (chunk count, decoded
    rate/length, peak amplitude from the real chunk payloads)."""
    from .agg import grouped_aggregate
    from .media import AudioChunker

    chunks = _media_rows(sf_dir).map_batches(
        AudioChunker(chunk_s=AUD_CHUNK_S, decode="real"),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=256,
    )

    def amp(batch: pa.Table) -> pa.Table:
        peaks = np.array(
            [int(np.frombuffer(p, dtype="<i2").max(initial=0))
             for p in batch.column("pcm").to_pylist()],
            dtype=np.int64,
        )
        return pa.table({
            "doc_num": batch.column("doc_num"),
            "span_offset": batch.column("span_offset"),
            "sample_rate": pc.cast(batch.column("sample_rate"), pa.int64()),
            "total_samples": batch.column("total_samples"),
            "peak": pa.array(peaks, type=pa.int64()),
        })

    rows = chunks.map_batches(amp, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_aggregate(
        rows,
        ["doc_num", "span_offset"],
        [("count", None, "n_chunks"), ("max", "sample_rate", "sample_rate"),
         ("max", "total_samples", "total_samples"), ("max", "peak", "peak_amp")],
    )


# SQL replay: audio spans have (doc_id+j)%4 = 2; the store synthesizes
# (4000 + m%12001) samples of constant amplitude m%2001 at 8 kHz; 0.5 s
# chunks at the DECODED rate = 4000 samples, so the duration-derived chunk
# count is ceil(total/4000); the peak equals the constant amplitude (zero
# padding in the last chunk never exceeds it).
SQL_AUDIO_DECODE_STATS = r"""
    WITH sp AS (
      SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
    ), au AS (
      SELECT doc_id, j,
             md5_number_lower('media://' || doc_id || '/' || j) AS m
      FROM sp WHERE (doc_id + j) % 4 = 2
    )
    SELECT doc_id AS doc_num, CAST(j AS BIGINT) AS span_offset,
           CAST((4000 + m % 12001 + 3999) // 4000 AS BIGINT) AS n_chunks,
           CAST(8000 AS BIGINT) AS sample_rate,
           CAST(4000 + m % 12001 AS BIGINT) AS total_samples,
           CAST(m % 2001 AS BIGINT) AS peak_amp
    FROM au
"""


# --- video: real Y4M decode + frame sampling ----------------------------------

VID_N_FRAMES = 4
VID_OUT_W, VID_OUT_H = 32, 18


def q_video_decode_stats(sf_dir: str):
    """video spans -> fetch Y4M -> decode (stream-parsed frame count) ->
    sample 4 frames evenly -> box-resize to 32x18 RGB -> per-frame stats
    (source index, decoded frame count, luma mean from the real payload)."""
    from .media import FrameSampler

    frames = _media_rows(sf_dir).map_batches(
        FrameSampler(n_frames=VID_N_FRAMES, width=VID_OUT_W,
                     height=VID_OUT_H, decode="real"),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=256,
    )

    def stats(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        need = VID_OUT_W * VID_OUT_H * 3
        if n:
            flat = np.frombuffer(
                b"".join(batch.column("frame").to_pylist()), dtype=np.uint8
            ).reshape(n, need).astype(np.int64)
            mean_y = flat.sum(axis=1) // need  # exact: solid frames
        else:
            mean_y = np.empty(0, np.int64)
        return pa.table({
            "doc_num": batch.column("doc_num"),
            "span_offset": batch.column("span_offset"),
            "frame_idx": batch.column("frame_idx"),
            "src_frame": batch.column("src_frame"),
            "n_src_frames": batch.column("n_src_frames"),
            "mean_y": pa.array(mean_y, type=pa.int64()),
            "frame_bytes": pa.array(np.full(n, need, np.int64), type=pa.int64()),
        })

    return frames.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


# SQL replay: video spans have (doc_id+j)%4 = 3; the store synthesizes
# (2 + m%15) 24x16 mono frames, frame f solid-valued (m+f)%256; the sampler
# takes src = (k*nf)//4 for k in 0..3, and box-resizing a solid frame (then
# replicating mono->RGB) preserves the value, so mean_y = (m+src)%256.
SQL_VIDEO_DECODE_STATS = r"""
    WITH sp AS (
      SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
    ), vi AS (
      SELECT doc_id, j,
             md5_number_lower('media://' || doc_id || '/' || j) AS m,
             2 + md5_number_lower('media://' || doc_id || '/' || j) % 15 AS nf
      FROM sp WHERE (doc_id + j) % 4 = 3
    ), fr AS (
      SELECT doc_id, j, m, nf, unnest(range(4)) AS k FROM vi
    )
    SELECT doc_id AS doc_num, CAST(j AS BIGINT) AS span_offset,
           CAST(k AS BIGINT) AS frame_idx,
           CAST((k * nf) // 4 AS BIGINT) AS src_frame,
           CAST(nf AS BIGINT) AS n_src_frames,
           CAST((m + (k * nf) // 4) % 256 AS BIGINT) AS mean_y,
           CAST(1728 AS BIGINT) AS frame_bytes
    FROM fr
"""


def build_queries_ext21() -> dict:
    return {
        "image_decode_stats": q_image_decode_stats,
        "audio_decode_stats": q_audio_decode_stats,
        "video_decode_stats": q_video_decode_stats,
    }


def build_oracles_ext21() -> dict:
    return {
        "image_decode_stats": SQL_IMAGE_DECODE_STATS,
        "audio_decode_stats": SQL_AUDIO_DECODE_STATS,
        "video_decode_stats": SQL_VIDEO_DECODE_STATS,
    }
