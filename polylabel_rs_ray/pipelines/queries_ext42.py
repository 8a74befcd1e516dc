"""Round-3 extension operators, batch 42: video scene-change detection.

``video_scene_cuts`` — shot-boundary detection on the REAL decode path:
every video span's YUV4MPEG2 stream is fetched and fully decoded, each
frame reduced to its integer mean luma (half-up over the real pixel
payload), and a CUT is declared wherever the luma jumps by more than
CUT_DELTA between consecutive frames — the classic mean-intensity
shot-boundary heuristic (a histogram or edge variant swaps only the
per-frame reduction).

The content store's frames are solid ``(m + f) % 256``, so consecutive
deltas are 1 except at the single 255 -> 0 wraparound — the DuckDB
oracle replays exactly which videos contain a cut (the wrap position
``255 - m % 256`` falls inside the frame range or not), proving the
full fetch -> decode -> per-frame reduce -> temporal diff chain ran
value-exactly on real encoded bytes.

Scale shape: stateless per-span task decode (frames are an O(nf*w*h)
heap spike per row — small batches), no shuffle at all: the temporal
diff is per-video-local, output is one row per video span.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CUT_DELTA = 16


class SceneCutDetector:
    """Actor-pool stage: video spans -> (n_frames, n_cuts, first/last mean
    luma) from fully decoded real streams."""

    def __init__(self, fetch=None):
        from . import codecs

        self.codecs = codecs
        self.fetch = fetch or codecs.synth_media

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = batch.filter(pc.equal(batch.column("kind"), "video"))
        refs = vids.column("media_ref").to_pylist()
        n = len(refs)
        nf = np.empty(n, np.int64)
        cuts = np.empty(n, np.int64)
        first = np.empty(n, np.int64)
        last = np.empty(n, np.int64)
        for i, r in enumerate(refs):
            frames, _fps = self.codecs.decode_y4m(self.fetch(r or "", "video"))
            px = frames[0].size
            luma = np.array(
                [(int(f.astype(np.int64).sum()) + px // 2) // px for f in frames],
                dtype=np.int64,
            )
            nf[i] = len(frames)
            cuts[i] = int((np.abs(np.diff(luma)) > CUT_DELTA).sum())
            first[i], last[i] = luma[0], luma[-1]
        return pa.table({
            "doc_num": pc.cast(vids.column("doc_num"), pa.int64()),
            "span_offset": pc.cast(vids.column("span_offset"), pa.int64()),
            "n_frames": pa.array(nf, type=pa.int64()),
            "n_cuts": pa.array(cuts, type=pa.int64()),
            "luma_first": pa.array(first, type=pa.int64()),
            "luma_last": pa.array(last, type=pa.int64()),
        })


def q_video_scene_cuts(sf_dir: str):
    from ..sources.docs import read_docs
    from .media import explode_media_spans

    return (
        read_docs(sf_dir)
        .map_batches(explode_media_spans, batch_format="pyarrow",
                     zero_copy_batch=True)
        .map_batches(
            SceneCutDetector(),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=256,
        )
    )


# frames are solid (m+f)%256 -> deltas are 1 except the single 255->0 wrap;
# a video of nf frames contains a cut iff the wrap offset 255 - m%256 lands
# in [0, nf-2]
SQL_VIDEO_SCENE_CUTS = r"""
WITH sp AS (
  SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
), vi AS (
  SELECT doc_id, j,
         md5_number_lower('media://' || doc_id || '/' || j) AS m,
         2 + md5_number_lower('media://' || doc_id || '/' || j) % 15 AS nf
  FROM sp WHERE (doc_id + j) % 4 = 3
)
SELECT doc_id AS doc_num, CAST(j AS BIGINT) AS span_offset,
       CAST(nf AS BIGINT) AS n_frames,
       CAST(CASE WHEN 255 - m % 256 <= nf - 2 THEN 1 ELSE 0 END AS BIGINT)
           AS n_cuts,
       CAST(m % 256 AS BIGINT) AS luma_first,
       CAST((m + nf - 1) % 256 AS BIGINT) AS luma_last
FROM vi
"""


def build_queries_ext42() -> dict:
    return {"video_scene_cuts": q_video_scene_cuts}


def build_oracles_ext42() -> dict:
    return {"video_scene_cuts": SQL_VIDEO_SCENE_CUTS}
