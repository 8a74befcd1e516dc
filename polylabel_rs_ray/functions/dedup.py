"""Deduplication kernels: exact hash, MinHash+LSH, SimHash, n-gram Jaccard.

Scale notes (100 TB design):
* signatures are computed in stateless ``map_batches`` tasks;
* LSH banding turns near-dup detection into an exact groupby on
  (band, band_hash) — the only shuffle, keyed so each bucket is tiny;
* candidate verification needs both documents' shingle sets; the small-scale
  path broadcasts the corpus, the large-scale path co-partitions shingle
  sets by doc_id alongside the candidate pairs (documented partitioning
  assumption: pairs and shingles share the hash(doc_id) partitioner).
"""

from __future__ import annotations

import hashlib

import numpy as np

MERSENNE31 = np.uint64((1 << 31) - 1)
N_PERM = 64
# r=2/b=32 banding: detection probability 1-(1-j^2)^32 — ~1.0 for j >= 0.5
# (the verification threshold), so LSH recall is verification-bound; the
# extra low-j candidates are discarded by the exact-Jaccard verify stage.
LSH_BANDS = 32
LSH_ROWS = 2  # N_PERM = LSH_BANDS * LSH_ROWS


def _perm_params(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 31, N_PERM, dtype=np.uint64)
    b = rng.integers(0, 1 << 31, N_PERM, dtype=np.uint64)
    return a, b


_WORD_HASH: dict[str, int] = {}  # per-process blake2b word-hash cache
_MIX = (np.uint64(0x9E3779B1), np.uint64(0x85EBCA77), np.uint64(0xC2B2AE3D))
_MASK32 = np.uint64(0xFFFFFFFF)


def _word_hash_array(tokens: list[str]) -> np.ndarray:
    out = np.empty(len(tokens), dtype=np.uint64)
    wh = _WORD_HASH
    for i, t in enumerate(tokens):
        h = wh.get(t)
        if h is None:
            h = int.from_bytes(hashlib.blake2b(t.encode(), digest_size=4).digest(), "little")
            wh[t] = h
        out[i] = h
    return out


def shingles(text: str, n: int = 3) -> np.ndarray:
    """Word n-gram shingle hashes (uint64 holding 32-bit values).

    Words are hashed once per process (blake2b, cached); an n-gram's hash is
    a vectorized multiplicative mix of its word hashes — the per-shingle
    string join + hash of the naive version collapses to numpy ops."""
    toks = text.lower().split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    wh = _word_hash_array(toks)
    if len(toks) < n:
        h = np.uint64(0)
        for k, v in enumerate(wh):
            h ^= (v * _MIX[k % 3]) & _MASK32
        return np.array([h & _MASK32], dtype=np.uint64)
    a = wh[: len(wh) - n + 1]
    h = (a * _MIX[0]) & _MASK32
    for k in range(1, n):
        h = (h ^ (wh[k : len(wh) - n + 1 + k] * _MIX[k % 3])) & _MASK32
    return h


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N_PERM,) uint32 signature: min over shingles of (a*h + b) mod 2^31-1."""
    if len(sh) == 0:
        return np.full(N_PERM, np.iinfo(np.uint32).max, dtype=np.uint32)
    v = (a[:, None] * sh[None, :] + b[:, None]) % MERSENNE31
    return v.min(axis=1).astype(np.uint32)


def jaccard(sh_a: np.ndarray, sh_b: np.ndarray) -> float:
    sa, sb = set(sh_a.tolist()), set(sh_b.tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def shingle_strs(text: str, n: int = 3) -> set:
    """EXACT word n-gram shingle set (strings, not hashes) — the verify-side
    twin of ``shingles``: candidate generation stays on the hashed/minhashed
    path, but verification over strings has no 32-bit collision noise, so a
    SQL oracle over the same n-gram strings replays reported similarities
    value-exactly."""
    toks = text.lower().split()
    if not toks:
        return set()
    if len(toks) < n:
        return {" ".join(toks)}
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def jaccard_pct_exact(sa: set, sb: set) -> tuple[int, int]:
    """(intersection, union) sizes — callers derive pass/fail and the
    integer percentage ``(200*i + u) // (2*u)`` (round-half-up, pure int
    arithmetic: no float rounding for SQL to mis-replay)."""
    if not sa and not sb:
        return 1, 1
    i = len(sa & sb)
    return i, len(sa) + len(sb) - i


class MinHasher:
    """Actor-pool stage state: permutation parameters built once."""

    def __init__(self, seed: int = 42, ngram: int = 3):
        self.a, self.b = _perm_params(seed)
        self.ngram = ngram

    def signature(self, text: str) -> np.ndarray:
        return minhash_signature(shingles(text, self.ngram), self.a, self.b)

    def signatures(self, texts: list[str | None]) -> np.ndarray:
        """(n, N_PERM) uint32 signatures for a whole batch in ONE permute +
        segmented min (bit-identical to per-doc ``signature``): shingle sets
        are concatenated and the (perm, shingle) modmul runs as a single
        (N_PERM, S_total) operation with ``minimum.reduceat`` per doc."""
        shs = [shingles(t or "", self.ngram) for t in texts]
        lens = np.array([len(s) for s in shs], dtype=np.int64)
        out = np.full((len(shs), N_PERM), np.iinfo(np.uint32).max, dtype=np.uint32)
        nz = np.flatnonzero(lens)
        if len(nz):
            cat = np.concatenate([shs[i] for i in nz])
            starts = np.zeros(len(nz), dtype=np.int64)
            np.cumsum(lens[nz][:-1], out=starts[1:])
            v = (self.a[:, None] * cat[None, :] + self.b[:, None]) % MERSENNE31
            out[nz] = np.minimum.reduceat(v, starts, axis=1).T.astype(np.uint32)
        return out


def band_hashes_batch(sigs: np.ndarray) -> np.ndarray:
    """(n, LSH_BANDS) int64 bucket keys for a batch of signatures: each
    band index mixed with its band's rows."""
    rows = sigs.reshape(len(sigs), LSH_BANDS, LSH_ROWS).astype(np.uint64)
    h = np.full((len(sigs), LSH_BANDS), np.uint64(1469598103934665603), dtype=np.uint64)
    for r in range(LSH_ROWS):
        h = (h ^ rows[:, :, r]) * np.uint64(1099511628211)
    band_idx = np.arange(LSH_BANDS, dtype=np.uint64)
    return ((h ^ (band_idx[None, :] << np.uint64(56))) >> np.uint64(1)).astype(np.int64)


# --- SimHash ---------------------------------------------------------------

_TOK8_HASH: dict[str, int] = {}  # per-process md5 8-byte token-hash cache


def _tok8_array(tokens: list[str]) -> np.ndarray:
    out = np.empty(len(tokens), dtype=np.uint64)
    th = _TOK8_HASH
    for i, t in enumerate(tokens):
        h = th.get(t)
        if h is None:
            # md5 low 8 bytes LE == DuckDB md5_number_lower — lets the
            # simhash oracle replay token hashes exactly in SQL
            h = int.from_bytes(hashlib.md5(t.encode()).digest()[8:], "little")
            th[t] = h
        out[i] = h
    return out


def simhash64_batch(texts: list[str | None]) -> np.ndarray:
    """(n,) int64 SimHashes, vectorized across the batch: all token hashes
    are expanded to a (T_total, 64) sign matrix once and summed per doc with
    ``add.reduceat`` (token hashes cached per process)."""
    toks_per_doc = [(t or "").lower().split() for t in texts]
    lens = np.array([len(t) for t in toks_per_doc], dtype=np.int64)
    acc = np.zeros((len(texts), 64), dtype=np.int64)
    nz = np.flatnonzero(lens)
    if len(nz):
        hashes = _tok8_array([tok for toks in toks_per_doc for tok in toks])
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(
            np.int64
        )
        signs = 2 * bits - 1  # (T_total, 64) of +-1
        starts = np.zeros(len(nz), dtype=np.int64)
        np.cumsum(lens[nz][:-1], out=starts[1:])
        acc[nz] = np.add.reduceat(signs, starts, axis=0)
    pos = (acc > 0).astype(np.uint64)
    packed = (pos << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)
    return (packed >> np.uint64(1)).astype(np.int64)  # int64-positive for Arrow/SQL


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
