"""Round-3 extension operators, batch 175: Shannon-Fano-Elias code
lengths + rank-biased overlap.

``sfe_code_lengths`` — the entropy-coding budget of the corpus
vocabulary: per word, the Shannon-Fano-Elias code length
``L = ceil(log2(N / c)) + 1`` (c = corpus frequency, N = total
tokens), kept EXACT by never computing a logarithm — ``ceil(log2
(N/c))`` is the smallest t with ``c·2^t ≥ N``, found by integer
shift comparison on both sides (numpy bit scan vs a MIN-over-range
SQL pick).  Emits (w, freq, code_len, cost_bits = freq·L); the Kraft
inequality Σ2^−L ≤ 1 — the reason these lengths decode — is pinned
exactly in pytest with big-int arithmetic.  Distributed shape: the
map-side-combined word-count reduce (the corpus scan is the cost),
then vectorized bit math on the bounded vocabulary.

``rank_biased_overlap`` — the top-weighted ranking-agreement measure
(RBO, Webber et al.) between two deterministic part rankings — by
retail price cents (desc, key ties) vs by size (desc, key ties) —
at persistence p = 1/2, depth D = 20, made EXACT by clearing
denominators: RBO = Σ_d 2^−d·(|A∩B@d|/d) scales to the integer
``term_d = (LCM/d)·2^(D−d)·overlap_d`` with LCM = lcm(1..20), so
every per-depth term and the total are int64.  Emits one row per
depth (d, overlap_d, term_scaled) — the whole agreement profile, not
just the scalar.  Distributed shape: two packed-key top-20
aggregates over the part table (map-side combine), intersection
counting on the bounded top lists.  Oracle: window ranks + per-depth
membership join — no packed keys, no bit tricks.

Reference anchors: compression + IR-evaluation families (SURVEY.md
§2.4); siblings: elias_code_spectrum / varint_size_estimate (code-
length arithmetic), vocab_ids (bounded vocabulary reduces),
rrf_fusion (exact-rational rank fusion).
"""

from __future__ import annotations

from math import gcd

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SFE_MAX_SHIFT = 45
RBO_DEPTH = 20


def _lcm_1_to(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out = out * k // gcd(out, k)
    return out


RBO_LCM = _lcm_1_to(RBO_DEPTH)


# --------------------------------------------------------------------------
# sfe_code_lengths
# --------------------------------------------------------------------------


def q_sfe_code_lengths(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def words(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        return pa.table({
            "w": toks,
            "one": pa.array(np.ones(len(toks), dtype=np.int64)),
        })

    freq = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]).map_batches(
            words, batch_format="pyarrow", zero_copy_batch=True),
        ["w"], [("sum", "one", "freq")],
    ).to_pandas()  # bounded vocabulary
    c = freq["freq"].to_numpy().astype(np.int64)
    N = int(c.sum())
    # smallest t with c << t >= N, vectorized bit scan
    t = np.zeros(len(c), dtype=np.int64)
    cur = c.copy()
    while True:
        need = cur < N
        if not need.any():
            break
        t[need] += 1
        cur[need] <<= 1
        assert t.max() <= SFE_MAX_SHIFT
    L = t + 1
    return ray.data.from_arrow(pa.table({
        "w": pa.array(freq["w"].tolist(), type=pa.string()),
        "freq": pa.array(c, type=pa.int64()),
        "code_len": pa.array(L, type=pa.int64()),
        "cost_bits": pa.array(c * L, type=pa.int64()),
    }))


SQL_SFE_CODE_LENGTHS = f"""
WITH freq AS MATERIALIZED (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS freq
  FROM (SELECT UNNEST(string_split(text, ' ')) AS w FROM documents)
  GROUP BY 1
), tot AS MATERIALIZED (SELECT SUM(freq) AS n FROM freq)
SELECT f.w, f.freq,
       CAST((SELECT MIN(r.range) FROM range(0, {SFE_MAX_SHIFT + 1}) r
             WHERE f.freq * (1::BIGINT << r.range) >= t.n) + 1
            AS BIGINT) AS code_len,
       CAST(f.freq *
            ((SELECT MIN(r.range) FROM range(0, {SFE_MAX_SHIFT + 1}) r
              WHERE f.freq * (1::BIGINT << r.range) >= t.n) + 1)
            AS BIGINT) AS cost_bits
FROM freq f, tot t
"""


# --------------------------------------------------------------------------
# rank_biased_overlap
# --------------------------------------------------------------------------


def q_rank_biased_overlap(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    # distributed top-D by each ranking via packed min-keys: rank A by
    # (price cents DESC, partkey ASC) -> key = (MAXC - cents) * 2^21 + pk
    MAXC = np.int64(1) << 41

    def prep(batch: pa.Table) -> pa.Table:
        pk = batch.column("p_partkey").to_numpy().astype(np.int64)
        cents = np.round(
            batch.column("p_retailprice").to_numpy() * 100.0
        ).astype(np.int64)
        size = batch.column("p_size").to_numpy().astype(np.int64)
        key_a = (MAXC - cents) * (np.int64(1) << 21) + pk
        key_b = (MAXC - size) * (np.int64(1) << 21) + pk
        # partial top-D per batch for each ranking, tagged
        out_rank, out_key = [], []
        for tag, key in ((0, key_a), (1, key_b)):
            top = np.sort(key)[:RBO_DEPTH]
            out_rank.extend([tag] * len(top))
            out_key.extend(top.tolist())
        return pa.table({
            "rank_tag": pa.array(out_rank, type=pa.int64()),
            "key": pa.array(out_key, type=pa.int64()),
        })

    def combine(batch: pa.Table) -> pa.Table:
        # partial combine: keep the D smallest keys per tag
        tag = batch.column("rank_tag").to_numpy().astype(np.int64)
        key = batch.column("key").to_numpy().astype(np.int64)
        out_t, out_k = [], []
        for s in (0, 1):
            ks = np.sort(key[tag == s])[:RBO_DEPTH]
            out_t.extend([s] * len(ks))
            out_k.extend(ks.tolist())
        return pa.table({
            "rank_tag": pa.array(out_t, type=pa.int64()),
            "key": pa.array(out_k, type=pa.int64()),
        })

    tops = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_retailprice", "p_size"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True
                  ).map_batches(combine, batch_format="pyarrow",
                                zero_copy_batch=True).to_pandas()
    tag = tops["rank_tag"].to_numpy().astype(np.int64)
    key = tops["key"].to_numpy().astype(np.int64)
    lists = {}
    for s in (0, 1):
        ks = np.sort(key[tag == s])[:RBO_DEPTH]
        lists[s] = [int(k) & ((1 << 21) - 1) for k in ks]  # partkeys
    a, b = lists[0], lists[1]
    ds_, ov, term = [], [], []
    for d in range(1, RBO_DEPTH + 1):
        o = len(set(a[:d]) & set(b[:d]))
        ds_.append(d)
        ov.append(o)
        term.append((RBO_LCM // d) * (1 << (RBO_DEPTH - d)) * o)
    return ray.data.from_arrow(pa.table({
        "d": pa.array(ds_, type=pa.int64()),
        "overlap_d": pa.array(ov, type=pa.int64()),
        "term_scaled": pa.array(term, type=pa.int64()),
    }))


SQL_RANK_BIASED_OVERLAP = f"""
WITH ra AS MATERIALIZED (
  SELECT p_partkey,
         ROW_NUMBER() OVER (
           ORDER BY CAST(ROUND(p_retailprice * 100) AS BIGINT) DESC,
                    p_partkey) AS r
  FROM part QUALIFY r <= {RBO_DEPTH}
), rb AS MATERIALIZED (
  SELECT p_partkey,
         ROW_NUMBER() OVER (ORDER BY p_size DESC, p_partkey) AS r
  FROM part QUALIFY r <= {RBO_DEPTH}
), depths AS (SELECT range AS d FROM range(1, {RBO_DEPTH + 1}))
SELECT CAST(d.d AS BIGINT) AS d,
       CAST(COALESCE((
         SELECT COUNT(*) FROM ra a JOIN rb b
           ON a.p_partkey = b.p_partkey
         WHERE a.r <= d.d AND b.r <= d.d), 0) AS BIGINT) AS overlap_d,
       CAST(({RBO_LCM} // d.d) * (1::BIGINT << ({RBO_DEPTH} - d.d))
            * COALESCE((
         SELECT COUNT(*) FROM ra a JOIN rb b
           ON a.p_partkey = b.p_partkey
         WHERE a.r <= d.d AND b.r <= d.d), 0) AS BIGINT) AS term_scaled
FROM depths d
"""


# --------------------------------------------------------------------------
# registry hooks
# --------------------------------------------------------------------------


def build_queries_ext175():
    return {
        "sfe_code_lengths": q_sfe_code_lengths,
        "rank_biased_overlap": q_rank_biased_overlap,
    }


def build_oracles_ext175():
    return {
        "sfe_code_lengths": SQL_SFE_CODE_LENGTHS,
        "rank_biased_overlap": SQL_RANK_BIASED_OVERLAP,
    }
