"""Round-3 extension operators, batch 135: audio blocking dedup + video
brightness slope — both on the REAL decode paths.

``audio_bucket_dedup`` — the BLOCKING step of audio near-duplicate
detection: every audio span's RIFF/WAV payload is fetched and
PCM16-decoded, reduced to the (duration-bucket, loudness-bucket) key
``(n_samples // 1000, peak // 100)``, and buckets holding ≥ 2 spans
are emitted with their span counts (the candidate groups a full dedup
would verify pairwise — exact-key dedup on the raw (n, amp) pair is
collision-free on this store by construction, so the COARSENED key is
what makes the operator non-degenerate at every scale factor).
Bounded ≤ 13×21 buckets through the map-side combine.  Oracle: the
``md5_number_lower`` store arithmetic bucketed the same way.

``video_brightness_slope`` — per video span, the exact integer linear
-trend statistics of the per-frame mean luma sequence from the fully
decoded Y4M stream: ``sum_y = Σ luma_f`` and the centered slope
numerator ``slope_num = Σ (2f − (nf−1))·luma_f`` (equal to
2·Σ f·y − (nf−1)·Σ y — the OLS slope numerator doubled, exact int64;
the 255→0 wrap makes it strongly negative for wrapping videos, a
value only the real frame decode gets right).  Oracle: LATERAL frame
replay of the ``(m+f) % 256`` store arithmetic.

Scale shape (both): stateless per-span task decode, small batches,
no shuffle beyond the bounded bucket combine.

Reference anchors: multimodal family (SURVEY.md §2.4); siblings:
audio_rms_stats (decode + integer moments), video_scene_cuts (decode
+ temporal diff), image_phash_dups (decode-path dedup).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DUR_BUCKET = 1000
AMP_BUCKET = 100


# --------------------------------------------------------------------------
# audio_bucket_dedup
# --------------------------------------------------------------------------


class AudioBucketer:
    """Actor-pool stage: audio spans -> (duration, loudness) buckets."""

    def __init__(self, fetch=None):
        from . import codecs

        self.codecs = codecs
        self.fetch = fetch or codecs.synth_media

    def __call__(self, batch: pa.Table) -> pa.Table:
        auds = batch.filter(pc.equal(batch.column("kind"), "audio"))
        refs = auds.column("media_ref").to_pylist()
        n = len(refs)
        db = np.empty(n, np.int64)
        ab = np.empty(n, np.int64)
        for i, r in enumerate(refs):
            pcm, _sr = self.codecs.decode_wav(self.fetch(r or "", "audio"))
            db[i] = len(pcm) // DUR_BUCKET
            ab[i] = int(np.abs(pcm.astype(np.int64)).max(initial=0)) \
                // AMP_BUCKET
        t = pa.table({
            "dur_bucket": pa.array(db, type=pa.int64()),
            "amp_bucket": pa.array(ab, type=pa.int64()),
        })
        out = t.group_by(["dur_bucket", "amp_bucket"]).aggregate(
            [("dur_bucket", "count")])
        return pa.table({
            "dur_bucket": out.column("dur_bucket"),
            "amp_bucket": out.column("amp_bucket"),
            "n": pc.cast(out.column("dur_bucket_count"), pa.int64()),
        })


def q_audio_bucket_dedup(sf_dir: str):
    from ..sources.docs import read_docs
    from .agg import grouped_aggregate
    from .media import explode_media_spans

    buckets = grouped_aggregate(
        read_docs(sf_dir)
        .map_batches(explode_media_spans, batch_format="pyarrow",
                     zero_copy_batch=True)
        .map_batches(
            AudioBucketer(),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=256,
        ),
        ["dur_bucket", "amp_bucket"], [("sum", "n", "n_spans")],
    )

    def dups_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("n_spans"), 2))

    return buckets.map_batches(dups_only, batch_format="pyarrow",
                               zero_copy_batch=True)


SQL_AUDIO_BUCKET_DEDUP = f"""
WITH sp AS (
  SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
), au AS (
  SELECT md5_number_lower('media://' || doc_id || '/' || j) AS m
  FROM sp WHERE (doc_id + j) % 4 = 2
)
SELECT CAST((4000 + m % 12001) // {DUR_BUCKET} AS BIGINT) AS dur_bucket,
       CAST((m % 2001) // {AMP_BUCKET} AS BIGINT) AS amp_bucket,
       CAST(COUNT(*) AS BIGINT) AS n_spans
FROM au GROUP BY 1, 2 HAVING COUNT(*) >= 2
"""


# --------------------------------------------------------------------------
# video_brightness_slope
# --------------------------------------------------------------------------


class BrightnessSloper:
    """Actor-pool stage: video spans -> exact luma trend statistics."""

    def __init__(self, fetch=None):
        from . import codecs

        self.codecs = codecs
        self.fetch = fetch or codecs.synth_media

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = batch.filter(pc.equal(batch.column("kind"), "video"))
        refs = vids.column("media_ref").to_pylist()
        n = len(refs)
        nf = np.empty(n, np.int64)
        sy = np.empty(n, np.int64)
        sn = np.empty(n, np.int64)
        for i, r in enumerate(refs):
            frames, _fps = self.codecs.decode_y4m(
                self.fetch(r or "", "video"))
            px = frames[0].size
            luma = np.array(
                [(int(f.astype(np.int64).sum()) + px // 2) // px
                 for f in frames], dtype=np.int64)
            k = len(luma)
            f = np.arange(k, dtype=np.int64)
            nf[i] = k
            sy[i] = int(luma.sum())
            sn[i] = int(((2 * f - (k - 1)) * luma).sum())
        return pa.table({
            "doc_num": pc.cast(vids.column("doc_num"), pa.int64()),
            "span_offset": pc.cast(vids.column("span_offset"), pa.int64()),
            "n_frames": pa.array(nf, type=pa.int64()),
            "sum_luma": pa.array(sy, type=pa.int64()),
            "slope_num": pa.array(sn, type=pa.int64()),
        })


def q_video_brightness_slope(sf_dir: str):
    from ..sources.docs import read_docs
    from .media import explode_media_spans

    return (
        read_docs(sf_dir)
        .map_batches(explode_media_spans, batch_format="pyarrow",
                     zero_copy_batch=True)
        .map_batches(
            BrightnessSloper(),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=256,
        )
    )


SQL_VIDEO_BRIGHTNESS_SLOPE = r"""
WITH sp AS (
  SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
), vi AS (
  SELECT doc_id, j,
         md5_number_lower('media://' || doc_id || '/' || j) AS m,
         CAST(2 + md5_number_lower('media://' || doc_id || '/' || j) % 15
              AS BIGINT) AS nf
  FROM sp WHERE (doc_id + j) % 4 = 3
), fr AS (
  SELECT doc_id, j, nf, f.f, CAST((m + f.f) % 256 AS BIGINT) AS luma
  FROM vi, LATERAL (SELECT unnest(range(nf)) AS f) f
)
SELECT doc_id AS doc_num, CAST(j AS BIGINT) AS span_offset,
       CAST(nf AS BIGINT) AS n_frames,
       CAST(SUM(luma) AS BIGINT) AS sum_luma,
       CAST(SUM((2 * f - (nf - 1)) * luma) AS BIGINT) AS slope_num
FROM fr GROUP BY doc_id, j, nf
"""


def build_queries_ext135() -> dict:
    return {
        "audio_bucket_dedup": q_audio_bucket_dedup,
        "video_brightness_slope": q_video_brightness_slope,
    }


def build_oracles_ext135() -> dict:
    return {
        "audio_bucket_dedup": SQL_AUDIO_BUCKET_DEDUP,
        "video_brightness_slope": SQL_VIDEO_BRIGHTNESS_SLOPE,
    }
