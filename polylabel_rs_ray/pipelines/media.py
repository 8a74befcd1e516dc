"""Multimodal span processing: explode interleaved docs into media rows,
featurize media payloads in a stateless map stage.

Two decode modes per stage:

- ``decode="fake"`` (default for the bulk stats queries): deterministic
  payloads derived from the media_ref hash — schema-identical to real
  decode with zero content-store I/O.
- ``decode="real"``: ACTUAL format decode via the pure-numpy/stdlib codecs
  in ``pipelines/codecs.py`` (PPM images, RIFF/WAV PCM16 audio, YUV4MPEG2
  video) — header parsing, dimension/rate/frame extraction, box-filter
  resampling, duration-derived chunking.  Payload bytes come from the
  ``fetch(ref, kind) -> bytes`` hook (defaults to the deterministic
  synthetic content store ``codecs.synth_media``; a deployment passes an
  object-store/Lance blob reader).  PIL/ffmpeg-class codecs (JPEG, H.264)
  are absent from this container — plugging them in is a ``fetch``+decoder
  swap; every other line (map stage, batch sizing, schema, rollups) is
  shared with the real path exercised here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MEDIA_FEATURE_DIM = 8


def explode_media_spans(batch: pa.Table) -> pa.Table:
    """One output row per NON-text span: (doc_num, span_offset, kind,
    media_ref).  Vectorized via list-offset arithmetic."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    counts = pc.list_value_length(spans).to_numpy().astype(np.int64)
    doc_num = np.repeat(batch.column("doc_num").to_numpy(), counts)
    flat = spans.flatten()
    kind = flat.field("kind")
    ref = flat.field("media_ref")
    offset = flat.field("offset")
    mask = pc.invert(pc.equal(kind, "text"))
    t = pa.table({
        "doc_num": pa.array(doc_num, type=pa.int64()),
        "span_offset": pc.cast(offset, pa.int64()),
        "kind": kind,
        "media_ref": ref,
    })
    return t.filter(mask)


class MediaFeaturizer:
    """map_batches stage: media_ref -> feature vector.

    ``decode="real"`` fetches the payload and genuinely decodes it
    (pipelines/codecs.py: PPM / WAV / Y4M by magic-byte sniff), emitting
    content-derived features — dims, means, dynamic range — normalized to
    [0, 1].  ``decode="fake"`` derives MEDIA_FEATURE_DIM floats in [0, 1)
    from blake2b(media_ref) — deterministic, schema-identical, no I/O.

    ``extra_decoders`` is the codec SWAP SEAM: a list of
    ``(magic_prefix, decode_fn)`` tried by payload sniff BEFORE the
    builtins, each ``decode_fn(data) -> np.ndarray`` of
    MEDIA_FEATURE_DIM floats.  Plugging a PIL/ffmpeg-class codec (JPEG,
    H.264) into a deployment is passing its entry here plus a real
    ``fetch`` to the instance the stage runs — no stage rewrite
    (pinned by tests/test_codecs.py::test_decoder_swap_seam)."""

    def __init__(self, decode: str = "fake", fetch=None,
                 extra_decoders=None):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        self.decode = decode
        self.extra_decoders = list(extra_decoders or [])
        for magic, _fn in self.extra_decoders:
            # b"" would match every payload and shadow the builtins; a
            # non-bytes magic would never match
            if not isinstance(magic, bytes) or not magic:
                raise ValueError(
                    f"extra decoder magic must be non-empty bytes, got {magic!r}")
        if decode == "real":
            from .codecs import synth_media

            self.fetch = fetch or synth_media

    def _featurize_real(self, ref: str, kind: str) -> np.ndarray:
        from . import codecs

        data = self.fetch(ref, kind)
        for magic, decode_fn in self.extra_decoders:
            if data[:len(magic)] == magic:
                out = np.asarray(decode_fn(data), dtype=np.float64)
                if out.shape != (MEDIA_FEATURE_DIM,):
                    raise ValueError(
                        f"extra decoder for {magic!r} returned shape "
                        f"{out.shape}, want ({MEDIA_FEATURE_DIM},)")
                return out
        out = np.zeros(MEDIA_FEATURE_DIM)
        if data[:2] == b"P6":
            img = codecs.decode_ppm(data)
            h, w, _ = img.shape
            mean = img.reshape(-1, 3).mean(axis=0)
            out[:6] = [1.0, w / 4096.0, h / 4096.0, *(mean / 255.0)]
        elif data[:4] == b"RIFF":
            pcm, rate = codecs.decode_wav(data)
            a = np.abs(pcm.astype(np.float64))
            out[:5] = [2.0, rate / 48000.0, len(pcm) / 1e6,
                       a.mean() / 32768.0, a.max(initial=0.0) / 32768.0]
        elif data[:9] == b"YUV4MPEG2":
            frames, fps = codecs.decode_y4m(data)
            out[:6] = [3.0, frames.shape[2] / 4096.0, frames.shape[1] / 4096.0,
                       len(frames) / 1e4, fps / 120.0,
                       float(frames.mean()) / 255.0 if frames.size else 0.0]
        else:
            raise ValueError(f"unrecognized payload for {ref!r}")
        return out

    def _featurize(self, ref: str, kind: str = "") -> np.ndarray:
        if self.decode == "real":
            return self._featurize_real(ref, kind)
        raw = hashlib.blake2b(ref.encode(), digest_size=MEDIA_FEATURE_DIM * 2).digest()
        vals = np.frombuffer(raw, dtype=np.uint16).astype(np.float64)
        return vals / 65536.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        kinds = batch.column("kind").to_pylist()
        feats = np.empty((len(refs), MEDIA_FEATURE_DIM))
        for i, r in enumerate(refs):
            feats[i] = self._featurize(r or "", kinds[i] or "")
        flat = pa.array(feats.ravel(), type=pa.float64())
        col = pa.FixedSizeListArray.from_arrays(flat, MEDIA_FEATURE_DIM)
        return batch.append_column("features", col)


def media_pipeline(sf_dir: str):
    """docs -> explode media spans -> featurize."""
    from ..sources.docs import read_docs

    ds = read_docs(sf_dir)
    media = ds.map_batches(explode_media_spans, batch_format="pyarrow", zero_copy_batch=True)
    return media.map_batches(MediaFeaturizer(decode="fake"),
                             batch_format="pyarrow", zero_copy_batch=True)


class FrameSampler:
    """map_batches stage: video span -> N sampled frame rows, resized.

    ``decode="real"`` fetches and parses an ACTUAL YUV4MPEG2 stream
    (pipelines/codecs.py), samples ``n_frames`` evenly across the decoded
    frame count (source index ``(j * total) // n_frames``), box-resizes
    each mono frame to width x height and replicates to RGB; the
    ``src_frame``/``n_src_frames`` metadata columns carry the real stream
    geometry.  ``decode="fake"`` synthesizes a deterministic
    width*height*3 RGB payload per (media_ref, frame_idx) with no I/O.
    The plumbing is shared: one row per sampled frame, an opaque
    ``binary`` payload column with typed metadata, and the stage is meant
    to run with a SMALL batch_size (frames are width*height*3 bytes each;
    a batch must fit the worker heap — at real resolutions use
    batch_size<=64)."""

    def __init__(self, n_frames: int = 4, width: int = 32, height: int = 18,
                 decode: str = "fake", fetch=None):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        self.n_frames = n_frames
        self.width = width
        self.height = height
        self.decode = decode
        if decode == "real":
            from .codecs import synth_media

            self.fetch = fetch or synth_media

    def _frame(self, ref: str, idx: int) -> bytes:
        need = self.width * self.height * 3
        seed = hashlib.blake2b(f"{ref}:{idx}".encode(), digest_size=32).digest()
        reps = -(-need // len(seed))
        return (seed * reps)[:need]

    def _sample_real(self, ref: str) -> tuple[list[bytes], list[int], int]:
        """-> (rgb payloads, source frame indices, total decoded frames)."""
        from . import codecs

        frames, _fps = codecs.decode_y4m(self.fetch(ref, "video"))
        total = len(frames)
        src = [(j * total) // self.n_frames for j in range(self.n_frames)]
        payloads = []
        for s in src:
            mono = codecs.box_resize(frames[s], self.width, self.height)
            payloads.append(np.repeat(mono[:, :, None], 3, axis=2).tobytes())
        return payloads, src, total

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = batch.filter(pc.equal(batch.column("kind"), "video"))
        n = vids.num_rows
        doc_num = np.repeat(vids.column("doc_num").to_numpy(), self.n_frames)
        span_off = np.repeat(vids.column("span_offset").to_numpy(), self.n_frames)
        refs = vids.column("media_ref").to_pylist()
        frame_idx = np.tile(np.arange(self.n_frames, dtype=np.int64), n)
        if self.decode == "real":
            payloads, src_all, tot_all = [], [], []
            for r in refs:
                p, src, total = self._sample_real(r or "")
                payloads.extend(p)
                src_all.extend(src)
                tot_all.extend([total] * self.n_frames)
            return pa.table({
                "doc_num": pa.array(doc_num, type=pa.int64()),
                "span_offset": pa.array(span_off, type=pa.int64()),
                "frame_idx": pa.array(frame_idx, type=pa.int64()),
                "src_frame": pa.array(src_all, type=pa.int64()),
                "n_src_frames": pa.array(tot_all, type=pa.int64()),
                "width": pa.array(np.full(len(payloads), self.width), type=pa.int32()),
                "height": pa.array(np.full(len(payloads), self.height), type=pa.int32()),
                "frame": pa.array(payloads, type=pa.binary()),
            })
        payloads = [
            self._frame(refs[i] or "", j)
            for i in range(n) for j in range(self.n_frames)
        ]
        return pa.table({
            "doc_num": pa.array(doc_num, type=pa.int64()),
            "span_offset": pa.array(span_off, type=pa.int64()),
            "frame_idx": pa.array(frame_idx, type=pa.int64()),
            "width": pa.array(np.full(len(payloads), self.width), type=pa.int32()),
            "height": pa.array(np.full(len(payloads), self.height), type=pa.int32()),
            "frame": pa.array(payloads, type=pa.binary()),
        })


class ImageResizer:
    """map_batches stage: image span -> one fixed-WxH RGB payload row.

    ``decode="real"`` fetches and decodes an ACTUAL PPM payload
    (pipelines/codecs.py), reads the original dimensions from the parsed
    header, and box-filter-resizes to width x height (deterministic
    integer mean, pinned against brute force in tests/test_codecs.py).
    ``decode="fake"`` synthesizes a deterministic width*height*3 payload
    from blake2b(media_ref) with no I/O; its original-size metadata is
    hash-derived.  JPEG/PNG need PIL-class codecs absent here — swapping
    them in touches only the decode call."""

    def __init__(self, width: int = 64, height: int = 64, decode: str = "fake",
                 fetch=None):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        self.width = width
        self.height = height
        self.decode = decode
        if decode == "real":
            from .codecs import synth_media

            self.fetch = fetch or synth_media

    def _rgb(self, ref: str) -> bytes:
        need = self.width * self.height * 3
        seed = hashlib.blake2b(ref.encode(), digest_size=32).digest()
        reps = -(-need // len(seed))
        return (seed * reps)[:need]

    def __call__(self, batch: pa.Table) -> pa.Table:
        imgs = batch.filter(pc.equal(batch.column("kind"), "image"))
        refs = imgs.column("media_ref").to_pylist()
        n = imgs.num_rows
        if self.decode == "real":
            from . import codecs

            payloads, ow, oh = [], np.empty(n, np.int64), np.empty(n, np.int64)
            for i, r in enumerate(refs):
                img = codecs.decode_ppm(self.fetch(r or "", "image"))
                oh[i], ow[i] = img.shape[0], img.shape[1]
                payloads.append(
                    codecs.box_resize(img, self.width, self.height).tobytes()
                )
            return pa.table({
                "doc_num": pc.cast(imgs.column("doc_num"), pa.int64()),
                "span_offset": pc.cast(imgs.column("span_offset"), pa.int64()),
                "orig_width": pa.array(ow, type=pa.int32()),
                "orig_height": pa.array(oh, type=pa.int32()),
                "width": pa.array(np.full(n, self.width), type=pa.int32()),
                "height": pa.array(np.full(n, self.height), type=pa.int32()),
                "rgb": pa.array(payloads, type=pa.binary()),
            })
        payloads = [self._rgb(r or "") for r in refs]
        # deterministic fake "original" dims derived from the ref
        orig = np.array(
            [int.from_bytes(hashlib.blake2b((r or "").encode(),
                                            digest_size=2).digest(), "little")
             for r in refs],
            dtype=np.int64,
        )
        return pa.table({
            "doc_num": pc.cast(imgs.column("doc_num"), pa.int64()),
            "span_offset": pc.cast(imgs.column("span_offset"), pa.int64()),
            "orig_width": pa.array(64 + orig % 1024, type=pa.int32()),
            "orig_height": pa.array(64 + (orig // 1024) % 1024, type=pa.int32()),
            "width": pa.array(np.full(n, self.width), type=pa.int32()),
            "height": pa.array(np.full(n, self.height), type=pa.int32()),
            "rgb": pa.array(payloads, type=pa.binary()),
        })


class AudioChunker:
    """map_batches stage: audio span -> fixed-duration PCM chunk rows.

    Completes the media trio (image featurize / video frame-sample /
    audio chunk).  ``decode="real"`` fetches and decodes an ACTUAL
    RIFF/WAV PCM16 payload (pipelines/codecs.py): the chunk count is
    duration-derived — ``ceil(decoded_samples / chunk_samples)`` at the
    DECODED sample rate — and chunk payloads are real waveform slices
    (last chunk zero-padded to the fixed size).  ``decode="fake"``
    synthesizes deterministic int16 PCM from blake2b(media_ref,
    chunk_idx), with a hash-derived chunk count (1..max_chunks) standing
    in for duration.  Payloads are chunk_samples*2 bytes each — run with
    a small batch_size at real sample rates."""

    def __init__(self, sample_rate: int = 16_000, chunk_s: float = 0.25,
                 max_chunks: int = 4, decode: str = "fake", fetch=None):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        self.sample_rate = sample_rate
        self.chunk_s = chunk_s
        self.n_samples = int(sample_rate * chunk_s)
        self.max_chunks = max_chunks
        self.decode = decode
        if decode == "real":
            from .codecs import synth_media

            self.fetch = fetch or synth_media

    def _n_chunks(self, ref: str) -> int:
        # FAKE-decode stand-in for clip duration: md5 low 8 bytes (LE) so a
        # DuckDB oracle can replay it exactly (md5_number_lower(ref)).  The
        # real path never calls this — its chunk count comes from the
        # decoded sample count in _decode_chunks.
        h = hashlib.md5(ref.encode()).digest()[8:]
        return 1 + int.from_bytes(h, "little") % self.max_chunks

    def _chunk(self, ref: str, idx: int) -> bytes:
        need = self.n_samples * 2  # int16 mono PCM
        seed = hashlib.blake2b(f"{ref}:{idx}".encode(), digest_size=32).digest()
        reps = -(-need // len(seed))
        return (seed * reps)[:need]

    def _decode_chunks(self, ref: str) -> tuple[list[bytes], int, int]:
        """Real path: -> (chunk payloads, decoded sample_rate, decoded
        total samples).  Chunk length re-derives from the DECODED rate so
        chunks always span chunk_s seconds of real audio."""
        from . import codecs

        pcm, rate = codecs.decode_wav(self.fetch(ref, "audio"))
        n_samples = int(rate * self.chunk_s)
        nc = max(1, -(-len(pcm) // n_samples))
        out = []
        for j in range(nc):
            seg = pcm[j * n_samples : (j + 1) * n_samples]
            if len(seg) < n_samples:
                seg = np.pad(seg, (0, n_samples - len(seg)))
            out.append(np.ascontiguousarray(seg, dtype="<i2").tobytes())
        return out, rate, len(pcm)

    def __call__(self, batch: pa.Table) -> pa.Table:
        auds = batch.filter(pc.equal(batch.column("kind"), "audio"))
        refs = auds.column("media_ref").to_pylist()
        if self.decode == "real":
            payloads, counts, rates, totals = [], [], [], []
            for r in refs:
                p, rate, total_samples = self._decode_chunks(r or "")
                payloads.extend(p)
                counts.append(len(p))
                rates.append(rate)
                totals.append(total_samples)
            counts = np.asarray(counts, dtype=np.int64)
            doc_num = np.repeat(auds.column("doc_num").to_numpy(), counts)
            span_off = np.repeat(auds.column("span_offset").to_numpy(), counts)
            total = int(counts.sum())
            seg = np.r_[0, np.cumsum(counts[:-1])] if len(counts) else np.array([], dtype=np.int64)
            chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(seg, counts)
            return pa.table({
                "doc_num": pa.array(doc_num, type=pa.int64()),
                "span_offset": pa.array(span_off, type=pa.int64()),
                "chunk_idx": pa.array(chunk_idx, type=pa.int64()),
                "sample_rate": pa.array(
                    np.repeat(np.asarray(rates, np.int64), counts), type=pa.int32()
                ),
                # n_samples keeps the fake path's meaning (per-chunk size);
                # total_samples carries the decoded clip length
                "n_samples": pa.array(
                    np.repeat((np.asarray(rates, np.float64) * self.chunk_s
                               ).astype(np.int64), counts), type=pa.int64()
                ),
                "total_samples": pa.array(
                    np.repeat(np.asarray(totals, np.int64), counts), type=pa.int64()
                ),
                "pcm": pa.array(payloads, type=pa.binary()),
            })
        counts = np.array([self._n_chunks(r or "") for r in refs], dtype=np.int64)
        doc_num = np.repeat(auds.column("doc_num").to_numpy(), counts)
        span_off = np.repeat(auds.column("span_offset").to_numpy(), counts)
        total = int(counts.sum())
        seg = np.r_[0, np.cumsum(counts[:-1])] if len(counts) else np.array([], dtype=np.int64)
        chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(seg, counts)
        payloads = [
            self._chunk(refs[i] or "", j)
            for i in range(len(refs)) for j in range(int(counts[i]))
        ]
        return pa.table({
            "doc_num": pa.array(doc_num, type=pa.int64()),
            "span_offset": pa.array(span_off, type=pa.int64()),
            "chunk_idx": pa.array(chunk_idx, type=pa.int64()),
            "sample_rate": pa.array(
                np.full(total, self.sample_rate), type=pa.int32()
            ),
            "n_samples": pa.array(np.full(total, self.n_samples), type=pa.int64()),
            "pcm": pa.array(payloads, type=pa.binary()),
        })


def audio_pipeline(sf_dir: str):
    """docs -> explode media spans -> chunk audio (small batches for the
    PCM payloads)."""
    from ..sources.docs import read_docs

    ds = read_docs(sf_dir)
    media = ds.map_batches(explode_media_spans, batch_format="pyarrow",
                           zero_copy_batch=True)
    return media.map_batches(
        AudioChunker(decode="fake"),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=256,  # chunks explode rows x n_samples*2 bytes
    )


def frame_pipeline(sf_dir: str, *, n_frames: int = 4):
    """docs -> explode media spans -> sample+resize frames (small batches
    for the binary payloads)."""
    from ..sources.docs import read_docs

    ds = read_docs(sf_dir)
    media = ds.map_batches(explode_media_spans, batch_format="pyarrow",
                           zero_copy_batch=True)
    return media.map_batches(
        FrameSampler(n_frames=n_frames, decode="fake"),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=256,  # frames explode rows x W*H*3 bytes; keep batches small
    )
