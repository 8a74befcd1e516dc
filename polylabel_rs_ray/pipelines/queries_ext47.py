"""Round-3 extension operators, batch 47: audio loudness statistics.

``audio_rms_stats`` — the loudness-normalization pre-pass of an audio
training pipeline: every audio span's RIFF/WAV payload is fetched and
PCM16-decoded, and per clip the engine reports the EXACT integer
loudness moments — sample count, peak amplitude, and the sum of squared
samples (int64: <= 16k samples * (2^15)^2 ~ 1.7e13) — plus the RMS as
one float sqrt(sumsq/n) pair of operations replayed identically in SQL.
Integer moments make the oracle bit-exact where a float RMS accumulation
would not be.

The content store synthesizes constant-amplitude clips, so SQL replays
``sumsq = n * amp^2`` from ``md5_number_lower`` arithmetic — a value
match proves the fetch -> RIFF parse -> PCM decode -> moment chain ran
on real encoded bytes.  Scale shape: stateless task decode, small
batches, no shuffle (per-clip-local reduction).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class RmsExtractor:
    """Actor-pool stage: audio spans -> exact loudness moments."""

    def __init__(self, fetch=None):
        from . import codecs

        self.codecs = codecs
        self.fetch = fetch or codecs.synth_media

    def __call__(self, batch: pa.Table) -> pa.Table:
        auds = batch.filter(pc.equal(batch.column("kind"), "audio"))
        refs = auds.column("media_ref").to_pylist()
        n = len(refs)
        ns = np.empty(n, np.int64)
        peak = np.empty(n, np.int64)
        sumsq = np.empty(n, np.int64)
        rate = np.empty(n, np.int64)
        for i, r in enumerate(refs):
            pcm, sr = self.codecs.decode_wav(self.fetch(r or "", "audio"))
            s = pcm.astype(np.int64)
            ns[i] = len(s)
            peak[i] = int(np.abs(s).max(initial=0))
            sumsq[i] = int((s * s).sum())
            rate[i] = sr
        return pa.table({
            "doc_num": pc.cast(auds.column("doc_num"), pa.int64()),
            "span_offset": pc.cast(auds.column("span_offset"), pa.int64()),
            "sample_rate": pa.array(rate, type=pa.int64()),
            "n_samples": pa.array(ns, type=pa.int64()),
            "peak_amp": pa.array(peak, type=pa.int64()),
            "sumsq": pa.array(sumsq, type=pa.int64()),
            "rms": pa.array(
                np.sqrt(sumsq.astype(np.float64) / ns.astype(np.float64)),
                type=pa.float64()),
        })


def q_audio_rms_stats(sf_dir: str):
    from ..sources.docs import read_docs
    from .media import explode_media_spans

    return (
        read_docs(sf_dir)
        .map_batches(explode_media_spans, batch_format="pyarrow",
                     zero_copy_batch=True)
        .map_batches(
            RmsExtractor(),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=256,
        )
    )


# store: (4000 + m%12001) samples of constant amplitude m%2001 at 8 kHz
SQL_AUDIO_RMS_STATS = r"""
WITH sp AS (
  SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
), au AS (
  SELECT doc_id, j,
         md5_number_lower('media://' || doc_id || '/' || j) AS m
  FROM sp WHERE (doc_id + j) % 4 = 2
)
SELECT doc_id AS doc_num, CAST(j AS BIGINT) AS span_offset,
       CAST(8000 AS BIGINT) AS sample_rate,
       CAST(4000 + m % 12001 AS BIGINT) AS n_samples,
       CAST(m % 2001 AS BIGINT) AS peak_amp,
       CAST((4000 + m % 12001) * (m % 2001) * (m % 2001) AS BIGINT) AS sumsq,
       SQRT(CAST((4000 + m % 12001) * (m % 2001) * (m % 2001) AS DOUBLE)
            / CAST(4000 + m % 12001 AS DOUBLE)) AS rms
FROM au
"""


def build_queries_ext47() -> dict:
    return {"audio_rms_stats": q_audio_rms_stats}


def build_oracles_ext47() -> dict:
    return {"audio_rms_stats": SQL_AUDIO_RMS_STATS}
