"""Round-3 extension operators, batch 33: perceptual-hash media dedup.

``image_phash_dups`` — near-duplicate image detection over the REAL
decode path: every image span's payload is fetched from the content
store, PPM-decoded, box-resized to 8x8, and reduced to a compact
perceptual signature — the per-channel integer mean (half-up over the
64 resized pixels) quantized to 4 bits and packed into a 12-bit key
``(r>>4)<<8 | (g>>4)<<4 | (b>>4)``.  Images sharing a signature form a
dup group; the keeper is the lexicographically smallest media_ref (the
canonical-doc convention), everything else is flagged a dup.

This is the image-side analogue of the text dedup family (MinHash /
SimHash / embedding LSH): a content-derived compact key, one hash
exchange on the key, group-local canonicalisation.  On solid-color
store payloads the spatial resize is value-neutral (mean == the color),
which is exactly what makes the oracle exact: DuckDB replays the
signature from the content store's ``md5_number_lower`` arithmetic, so
a match proves fetch -> decode -> resize -> signature ran value-exactly
on real encoded bytes.  On natural images the same signature degrades
to a coarse color-histogram hash; swapping in a dHash/pHash bit pattern
touches only ``_signature``.

Scale shape: stateless per-span task decode (small batches — decoded
images are heap-heavy), ONE exchange partitioned by ``hash(sig) % P``,
group stats vectorized via one Arrow sort per partition.  media_refs
here are unique per span (``media://doc/j``); a deployment with shared
refs would insert a ref-dedup pass on the same exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

PHASH_RES = 8


def _signature(resized: np.ndarray) -> int:
    """(8,8,3) uint8 -> 12-bit packed 4-bit-per-channel mean signature."""
    px = resized.shape[0] * resized.shape[1]
    sums = resized.astype(np.int64).reshape(px, 3).sum(axis=0)
    means = (sums + px // 2) // px  # integer mean, half-up
    q = means >> 4
    return int((q[0] << 8) | (q[1] << 4) | q[2])


class PhashSigner:
    """map_batches stage: image spans -> (media_ref, sig) rows via real
    fetch + PPM decode + 8x8 box resize (payload work per batch)."""

    def __init__(self, fetch=None):
        from . import codecs

        self.codecs = codecs
        self.fetch = fetch or codecs.synth_media

    def __call__(self, batch: pa.Table) -> pa.Table:
        imgs = batch.filter(pc.equal(batch.column("kind"), "image"))
        refs = imgs.column("media_ref").to_pylist()
        sigs = np.empty(len(refs), np.int64)
        for i, r in enumerate(refs):
            img = self.codecs.decode_ppm(self.fetch(r or "", "image"))
            sigs[i] = _signature(
                self.codecs.box_resize(img, PHASH_RES, PHASH_RES)
            )
        return pa.table({
            "media_ref": pa.array(refs, type=pa.string()),
            "sig": pa.array(sigs, type=pa.int64()),
        })


def q_image_phash_dups(sf_dir: str, n_parts: int | None = None):
    from ..sources.docs import read_docs
    from .media import explode_media_spans
    signed = (
        read_docs(sf_dir)
        .map_batches(explode_media_spans, batch_format="pyarrow",
                     zero_copy_batch=True)
        .map_batches(
            PhashSigner(),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=256,
        )
    )

    def group_stats(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                "media_ref": pa.array([], type=pa.string()),
                "sig": pa.array([], type=pa.int64()),
                "n_same": pa.array([], type=pa.int64()),
                "keeper": pa.array([], type=pa.string()),
                "is_dup": pa.array([], type=pa.int64()),
            })
        order = pc.sort_indices(
            group, sort_keys=[("sig", "ascending"), ("media_ref", "ascending")]
        )
        g = group.take(order)
        sig = g.column("sig").to_numpy().astype(np.int64)
        starts = np.concatenate([[0], np.nonzero(np.diff(sig) != 0)[0] + 1])
        sizes = np.diff(np.concatenate([starts, [len(sig)]]))
        run_id = np.repeat(np.arange(len(starts)), sizes)
        refs = g.column("media_ref")
        keepers = refs.take(pa.array(starts[run_id], type=pa.int64()))
        return pa.table({
            "media_ref": refs,
            "sig": g.column("sig"),
            "n_same": pa.array(sizes[run_id], type=pa.int64()),
            "keeper": keepers,
            "is_dup": pa.array(
                pc.not_equal(refs, keepers).to_numpy(zero_copy_only=False)
                .astype(np.int64)
            ),
        })

    return hash_exchange(signed, "sig", group_stats, n_parts)


SQL_IMAGE_PHASH_DUPS = r"""
WITH sp AS (
  SELECT doc_id, unnest(range(doc_id % 8 + 1)) AS j FROM documents
), im AS (
  SELECT 'media://' || doc_id || '/' || j AS media_ref,
         md5_number_lower('media://' || doc_id || '/' || j) AS m
  FROM sp WHERE (doc_id + j) % 4 = 1
), sigs AS (
  SELECT media_ref,
         CAST(((m % 256) // 16) * 256
              + (((m // 256) % 256) // 16) * 16
              + (((m // 65536) % 256) // 16) AS BIGINT) AS sig
  FROM im
), g AS (
  SELECT sig, CAST(COUNT(*) AS BIGINT) AS n_same, MIN(media_ref) AS keeper
  FROM sigs GROUP BY sig
)
SELECT s.media_ref, s.sig, g.n_same, g.keeper,
       CAST(CASE WHEN s.media_ref <> g.keeper THEN 1 ELSE 0 END AS BIGINT)
           AS is_dup
FROM sigs s JOIN g USING (sig)
"""


def build_queries_ext33() -> dict:
    return {"image_phash_dups": q_image_phash_dups}


def build_oracles_ext33() -> dict:
    return {"image_phash_dups": SQL_IMAGE_PHASH_DUPS}
