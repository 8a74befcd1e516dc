"""Round-3 extension operators, batch 23: cross-modal document profile.

``doc_media_profile`` — the span-level multimodal rollup a curation
pipeline keys retention decisions on: per document, span counts by kind
plus the TOTAL ENCODED MEDIA BYTES the document references.  Byte sizes
are measured, not modeled: the stage fetches every media payload from the
content store and takes ``len(bytes)`` of the actual PPM/WAV/Y4M encoding
— so the oracle (which replays the encodings' exact header+payload
arithmetic, down to the decimal-digit width of the PPM dimension fields)
verifies the fetch path end-to-end.  One stateless map over the
interleaved docs; no shuffle (doc_id is already the row key)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def q_doc_media_profile(sf_dir: str):
    from ..sources.docs import read_docs
    from .codecs import synth_media

    def profile(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        counts = pc.list_value_length(spans).to_numpy().astype(np.int64)
        flat = spans.flatten()
        kinds = flat.field("kind").to_pylist()
        refs = flat.field("media_ref").to_pylist()
        doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)

        per_kind = {k: np.zeros(batch.num_rows, np.int64)
                    for k in ("text", "image", "audio", "video")}
        media_bytes = np.zeros(batch.num_rows, np.int64)
        for i, (k, r) in enumerate(zip(kinds, refs)):
            d = doc_idx[i]
            per_kind[k][d] += 1
            if k != "text":
                media_bytes[d] += len(synth_media(r or "", k))
        return pa.table({
            "doc_num": batch.column("doc_num"),
            "n_spans": pa.array(counts, type=pa.int64()),
            "n_text": pa.array(per_kind["text"], type=pa.int64()),
            "n_image": pa.array(per_kind["image"], type=pa.int64()),
            "n_audio": pa.array(per_kind["audio"], type=pa.int64()),
            "n_video": pa.array(per_kind["video"], type=pa.int64()),
            "media_bytes": pa.array(media_bytes, type=pa.int64()),
        })

    return read_docs(sf_dir).map_batches(
        profile, batch_format="pyarrow", zero_copy_batch=True
    )


# SQL replay of the ENCODED payload sizes (pipelines/codecs.py):
#   PPM  : 'P6\n' + str(w) + ' ' + str(h) + '\n255\n' + w*h*3
#        = 9 + len(str(w)) + len(str(h)) + w*h*3
#   WAV  : 44-byte canonical RIFF header + 2 bytes/sample
#   Y4M  : 'YUV4MPEG2 W24 H16 F12:1 Ip A1:1 Cmono\n' (38) +
#          nf * ('FRAME\n' (6) + 24*16 (384))
# with the content-store parameters m = md5_number_lower(media_ref).
SQL_DOC_MEDIA_PROFILE = r"""
    WITH sp AS (
      SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
    ), k AS (
      SELECT doc_id, j, (doc_id + j) % 4 AS kind,
             md5_number_lower('media://' || doc_id || '/' || j) AS m
      FROM sp
    ), sized AS (
      SELECT doc_id, kind,
             CASE kind
               WHEN 1 THEN 9
                 + length(CAST(16 + m % 49 AS VARCHAR))
                 + length(CAST(16 + (m // 49) % 49 AS VARCHAR))
                 + CAST((16 + m % 49) * (16 + (m // 49) % 49) * 3 AS BIGINT)
               WHEN 2 THEN CAST(44 + 2 * (4000 + m % 12001) AS BIGINT)
               WHEN 3 THEN CAST(38 + (2 + m % 15) * 390 AS BIGINT)
               ELSE 0
             END AS bytes
      FROM k
    )
    SELECT doc_id AS doc_num,
           CAST(COUNT(*) AS BIGINT) AS n_spans,
           CAST(SUM(CASE WHEN kind = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_text,
           CAST(SUM(CASE WHEN kind = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_image,
           CAST(SUM(CASE WHEN kind = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_audio,
           CAST(SUM(CASE WHEN kind = 3 THEN 1 ELSE 0 END) AS BIGINT) AS n_video,
           CAST(SUM(bytes) AS BIGINT) AS media_bytes
    FROM sized GROUP BY doc_id
"""


def build_queries_ext23() -> dict:
    return {"doc_media_profile": q_doc_media_profile}


def build_oracles_ext23() -> dict:
    return {"doc_media_profile": SQL_DOC_MEDIA_PROFILE}
