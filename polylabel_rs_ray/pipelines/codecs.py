"""Pure-numpy/stdlib media codecs: real decoders for the media stages.

The container has no PIL/ffmpeg/torchaudio, but three REAL public formats
need none of them:

- **PPM (P6)** binary images: ASCII header + raw RGB24 rows.
- **WAV (RIFF PCM16 mono)**: 44-byte canonical header + raw little-endian
  int16 samples.
- **Y4M (YUV4MPEG2)** video: ASCII stream header + per-frame ``FRAME\\n``
  markers + raw planes (``Cmono`` = one grayscale plane per frame).

These give ``pipelines/media.py`` a genuine ``decode="real"`` path — header
parsing, dimension/rate/frame-count extraction, and pixel/sample math all
operate on actual encoded bytes — while staying inside the sandbox's
dependency budget.  On a deployment with PIL/ffmpeg available the same
stage hooks accept those decoders instead; nothing else changes.

``synth_media`` is the sandbox's content-store stand-in: a deterministic
``media_ref -> encoded bytes`` fetcher whose parameters derive from the
md5 of the ref via the same ``md5_number_lower`` arithmetic DuckDB exposes,
so end-to-end decode pipelines stay SQL-oracle-checkable (the payloads are
solid-color / constant-amplitude; shape-generality of the resize kernel is
pinned separately by brute-force pytest).
"""

from __future__ import annotations

import hashlib

import numpy as np


# --- PPM (P6) ----------------------------------------------------------------

def encode_ppm(rgb: np.ndarray) -> bytes:
    """(h, w, 3) uint8 -> binary PPM."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w, c = rgb.shape
    if c != 3:
        raise ValueError("PPM P6 requires 3 channels")
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM -> (h, w, 3) uint8.  Parses the real header (magic,
    whitespace/comment-tolerant dims, maxval)."""
    if data[:2] != b"P6":
        raise ValueError("not a P6 PPM")
    # tokenize header: magic, width, height, maxval; '#' starts a comment
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    need = w * h * 3
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise ValueError("truncated PPM payload")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


# --- WAV (RIFF PCM16 mono) ---------------------------------------------------

def encode_wav(pcm: np.ndarray, sample_rate: int) -> bytes:
    """int16 mono samples -> canonical 44-byte-header RIFF WAV."""
    pcm = np.ascontiguousarray(pcm, dtype="<i2")
    raw = pcm.tobytes()
    byte_rate = sample_rate * 2
    hdr = (
        b"RIFF" + (36 + len(raw)).to_bytes(4, "little") + b"WAVE"
        + b"fmt " + (16).to_bytes(4, "little")
        + (1).to_bytes(2, "little")            # PCM
        + (1).to_bytes(2, "little")            # mono
        + sample_rate.to_bytes(4, "little")
        + byte_rate.to_bytes(4, "little")
        + (2).to_bytes(2, "little")            # block align
        + (16).to_bytes(2, "little")           # bits/sample
        + b"data" + len(raw).to_bytes(4, "little")
    )
    return hdr + raw


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """RIFF PCM16 mono WAV -> (int16 samples, sample_rate).  Walks the real
    chunk list (fmt / data may be preceded by other chunks)."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos, rate, raw = 12, None, None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        size = int.from_bytes(data[pos + 4 : pos + 8], "little")
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = int.from_bytes(body[0:2], "little")
            ch = int.from_bytes(body[2:4], "little")
            bits = int.from_bytes(body[14:16], "little")
            if (fmt, ch, bits) != (1, 1, 16):
                raise ValueError(f"unsupported WAV layout {(fmt, ch, bits)}")
            rate = int.from_bytes(body[4:8], "little")
        elif cid == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or raw is None:
        raise ValueError("missing fmt/data chunk")
    return np.frombuffer(raw, dtype="<i2"), rate


# --- Y4M (YUV4MPEG2, Cmono) --------------------------------------------------

def encode_y4m(frames: np.ndarray, fps: int = 12) -> bytes:
    """(n, h, w) uint8 mono frames -> YUV4MPEG2 Cmono stream."""
    frames = np.ascontiguousarray(frames, dtype=np.uint8)
    n, h, w = frames.shape
    out = [b"YUV4MPEG2 W%d H%d F%d:1 Ip A1:1 Cmono\n" % (w, h, fps)]
    for f in range(n):
        out.append(b"FRAME\n")
        out.append(frames[f].tobytes())
    return b"".join(out)


def decode_y4m(data: bytes) -> tuple[np.ndarray, int]:
    """YUV4MPEG2 Cmono stream -> ((n, h, w) uint8 frames, fps).  Parses the
    real stream header tags and per-frame FRAME markers."""
    nl = data.index(b"\n")
    header = data[:nl].split(b" ")
    if header[0] != b"YUV4MPEG2":
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = fps = None
    mono = False
    for tag in header[1:]:
        if tag[:1] == b"W":
            w = int(tag[1:])
        elif tag[:1] == b"H":
            h = int(tag[1:])
        elif tag[:1] == b"F":
            fps = int(tag[1:].split(b":")[0])
        elif tag[:1] == b"C":
            mono = tag[1:] == b"mono"
    if w is None or h is None or not mono:
        raise ValueError("unsupported y4m header (need W/H/Cmono)")
    frame_bytes = w * h
    pos, frames = nl + 1, []
    while pos < len(data):
        fnl = data.index(b"\n", pos)
        if data[pos : pos + 5] != b"FRAME":
            raise ValueError("bad frame marker")
        start = fnl + 1
        raw = data[start : start + frame_bytes]
        if len(raw) != frame_bytes:
            raise ValueError("truncated frame")
        frames.append(np.frombuffer(raw, dtype=np.uint8).reshape(h, w))
        pos = start + frame_bytes
    return np.stack(frames) if frames else np.empty((0, h, w), np.uint8), fps or 0


# --- box resize ---------------------------------------------------------------

def box_resize(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Deterministic box-filter resize of (h, w[, c]) uint8 to (out_h,
    out_w[, c]).  Output bin i covers source rows [i*h//H, (i+1)*h//H) —
    at least one row when upscaling (degenerates to nearest-neighbor) —
    and values are bin means rounded half-up.  Vectorized: two reduceat
    passes, no Python pixel loops."""
    img = np.asarray(img)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[:, :, None]
    h, w, c = img.shape
    rb = (np.arange(out_h, dtype=np.int64) * h) // out_h
    cb = (np.arange(out_w, dtype=np.int64) * w) // out_w
    # bin sizes: next boundary (or end) minus start, floored at 1 source px
    rend = np.minimum(np.maximum(np.r_[rb[1:], h], rb + 1), h)
    cend = np.minimum(np.maximum(np.r_[cb[1:], w], cb + 1), w)
    acc = np.add.reduceat(img.astype(np.int64), rb, axis=0)
    # reduceat over [rb_i, rb_{i+1}) — fix bins where start == next start
    # (upscale): reduceat returns the single row at rb_i there, which IS the
    # 1-row bin we defined, so no correction needed; same for columns.
    acc = np.add.reduceat(acc, cb, axis=1)
    area = ((rend - rb)[:, None] * (cend - cb)[None, :])[:, :, None]
    out = (acc + area // 2) // area  # integer mean, half-up
    out = out.astype(np.uint8)
    return out[:, :, 0] if squeeze else out


# --- deterministic content store (sandbox stand-in) ---------------------------

IMG_DIM_MIN, IMG_DIM_RANGE = 16, 49
AUD_RATE, AUD_BASE, AUD_RANGE, AMP_RANGE = 8000, 4000, 12001, 2001
VID_W, VID_H, VID_BASE, VID_RANGE, VID_FPS = 24, 16, 2, 15, 12


def ref_key(ref: str) -> int:
    """md5 low 8 bytes, little-endian — DuckDB's ``md5_number_lower``, the
    repo-wide convention for SQL-replayable per-ref parameters."""
    return int.from_bytes(hashlib.md5(ref.encode()).digest()[8:], "little")


def synth_media(ref: str, kind: str) -> bytes:
    """Deterministic encoded payload for a media_ref — the sandbox's
    content store.  All parameters are ``md5_number_lower`` arithmetic on
    the ref so decode pipelines stay oracle-checkable:

    - image: solid (m%256, m//256%256, m//65536%256) PPM of
      (16 + m%49) x (16 + m//49%49)
    - audio: (4000 + m%12001) samples of constant amplitude m%2001 at 8 kHz
    - video: (2 + m%15) 24x16 mono frames, frame f solid (m+f)%256, 12 fps
    """
    m = ref_key(ref)
    if kind == "image":
        w = IMG_DIM_MIN + m % IMG_DIM_RANGE
        h = IMG_DIM_MIN + (m // IMG_DIM_RANGE) % IMG_DIM_RANGE
        color = np.array([m % 256, (m // 256) % 256, (m // 65536) % 256],
                         dtype=np.uint8)
        return encode_ppm(np.broadcast_to(color, (h, w, 3)))
    if kind == "audio":
        n = AUD_BASE + m % AUD_RANGE
        amp = m % AMP_RANGE
        return encode_wav(np.full(n, amp, dtype=np.int16), AUD_RATE)
    if kind == "video":
        nf = VID_BASE + m % VID_RANGE
        vals = (m + np.arange(nf, dtype=np.uint64)) % 256
        frames = np.broadcast_to(
            vals.astype(np.uint8)[:, None, None], (nf, VID_H, VID_W)
        )
        return encode_y4m(frames, VID_FPS)
    raise ValueError(f"no synthetic payload for kind {kind!r}")
