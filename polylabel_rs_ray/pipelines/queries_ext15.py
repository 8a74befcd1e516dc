"""Round-2 extension operators, batch 16: sampling/sketch/bloom variants.

* ``sample_per_lang`` — fixed-k deterministic sample PER STRATUM (3 docs
  per language by md5 priority): partition-local lexsort + run-offset
  take, the grouped sibling of ``weighted_sample`` (which is global) and
  of ``stratified_sample`` (which is rate-based).
* ``hll_type_overlap`` — sketch SET ALGEBRA: approximate |viewers ∩
  purchasers| from three HLL register sets (A, B, and A∪B = elementwise
  max — HLL unions are lossless) via inclusion-exclusion.  Constant-size
  partials at any cardinality; rows-only (approximate), pytest pins the
  error against the exact overlap.
* ``orders_with_lineitems_bloom`` — semi join with a FORCED distributed
  bloom prefilter: the build side's key bitmap OR-reduces map-side (the
  driver only ever sees fixed-size bitmaps), probes drop non-members
  before the shuffle, and the exact co-partitioned presence check
  resolves the false positives — results identical to the EXISTS oracle
  by construction (bloom has no false negatives)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.util import group_map
from .agg import hash_exchange, hash_part, n_partitions

SAMPLE_K = 3
HLL_P = 12


# --------------------------------------------------------------------------
# fixed-k per-stratum deterministic sample
# --------------------------------------------------------------------------


def q_sample_per_lang(sf_dir: str, n_parts: int | None = None):
    import ray
    P = n_partitions(n_parts)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def keyed(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        prio = np.fromiter(
            (int(hashlib.md5(str(k).encode()).hexdigest()[:15], 16) for k in did),
            dtype=np.int64,
            count=len(did),
        )
        lang = batch.column("lang")
        d = pc.dictionary_encode(lang)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        import zlib

        lut = np.array(
            [zlib.crc32(s.encode()) for s in d.dictionary.to_pylist()], dtype=np.int64
        )
        lh = lut[d.indices.to_numpy()]
        return pa.table({
            "part": pa.array(hash_part(lh, P), type=pa.int64()),
            "lang": lang,
            "doc_id": pa.array(did, type=pa.int64()),
            "prio": pa.array(prio, type=pa.int64()),
        })

    def pick(group: pa.Table) -> pa.Table:
        lang = group.column("lang").to_pandas().to_numpy()
        did = group.column("doc_id").to_numpy().astype(np.int64)
        prio = group.column("prio").to_numpy().astype(np.int64)
        order = np.lexsort((did, prio, lang))
        lang, did = lang[order], did[order]
        starts = np.flatnonzero(np.r_[True, lang[1:] != lang[:-1]])
        lens = np.diff(np.r_[starts, len(lang)])
        take = np.concatenate(
            [s + np.arange(min(SAMPLE_K, L)) for s, L in zip(starts, lens)]
        ) if len(starts) else np.array([], dtype=np.int64)
        return pa.table({
            "lang": pa.array(lang[take], type=pa.string()),
            "doc_id": pa.array(did[take], type=pa.int64()),
        })

    return group_map(
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "part", pick,
    )


SQL_SAMPLE_PER_LANG = f"""
    SELECT lang, CAST(doc_id AS BIGINT) AS doc_id
    FROM documents
    QUALIFY ROW_NUMBER() OVER (
        PARTITION BY lang
        ORDER BY CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                      AS BIGINT), doc_id
    ) <= {SAMPLE_K}
"""


# --------------------------------------------------------------------------
# HLL set algebra (intersection estimate)
# --------------------------------------------------------------------------


def _hll_regs(ds, col_filter: str):
    """Merged HLL registers of user_id restricted to one event type
    (SQL-replayable md5 hash chain — queries._hll_md5_reg_rho)."""
    from .queries import _hll_md5_reg_rho

    m = 1 << HLL_P

    def partial(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("event_type"), col_filter))
        uid = b.column("user_id").to_numpy().astype(np.int64)
        regs = np.zeros(m, dtype=np.int64)
        if len(uid):
            reg, rho = _hll_md5_reg_rho(uid)
            np.maximum.at(regs, reg, rho)
        return pa.table({"regs": pa.array([regs], type=pa.list_(pa.int64()))})

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    out = np.zeros(m, dtype=np.int64)
    for row in parts["regs"]:
        np.maximum(out, np.asarray(row, dtype=np.int64), out=out)
    return out


def q_hll_type_overlap(sf_dir: str):
    from .queries import _hll_estimate_exact

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    ra = _hll_regs(ds, "view")
    rb = _hll_regs(ds, "purchase")
    ea, eb = _hll_estimate_exact(ra), _hll_estimate_exact(rb)
    eu = _hll_estimate_exact(np.maximum(ra, rb))  # HLL union is lossless
    inter = max(0, ea + eb - eu)  # pure ints end-to-end
    return pa.table({
        "approx_viewers": pa.array([ea], type=pa.int64()),
        "approx_purchasers": pa.array([eb], type=pa.int64()),
        "approx_either": pa.array([eu], type=pa.int64()),
        "approx_both": pa.array([inter], type=pa.int64()),
    })


def _sql_hll_type_overlap() -> str:
    """Register-replay oracle: three scalar HLL estimates (view,
    purchase, union-of-both — the union registers are just the estimate
    over rows of EITHER type, since HLL union is elementwise max) and
    integer inclusion-exclusion, all value-exact vs the engine."""
    from .queries import _sql_hll_est

    return f"""
    SELECT v AS approx_viewers, p AS approx_purchasers,
           u AS approx_either, GREATEST(0, v + p - u) AS approx_both
    FROM (SELECT {_sql_hll_est("event_type = 'view'")} AS v,
                 {_sql_hll_est("event_type = 'purchase'")} AS p,
                 {_sql_hll_est("event_type IN ('view', 'purchase')")} AS u)
    """


# --------------------------------------------------------------------------
# bloom-prefiltered semi join
# --------------------------------------------------------------------------


def q_orders_with_lineitems_bloom(sf_dir: str, n_parts: int | None = None):
    from .bloom import bloom_contains, bloom_size_bits, build_bloom

    import ray
    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
    n_keys = li.count()
    bloom = build_bloom(li, ["l_orderkey"], bloom_size_bits(n_keys))
    bloom_ref = ray.put(bloom)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def probe(batch: pa.Table) -> pa.Table:
        import ray

        key = batch.column("o_orderkey").to_numpy().astype(np.int64)
        keep = bloom_contains(ray.get(bloom_ref), key)
        return pa.table({
            "o_orderkey": pa.array(key[keep], type=pa.int64()),
            "price_cents": pc.cast(
                pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)), pa.int64()
            ).filter(pa.array(keep)),
            "present": pa.array(np.zeros(int(keep.sum()), np.int64)),
        })

    def build_side(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "o_orderkey": pa.array(key, type=pa.int64()),
            "price_cents": pa.array(np.zeros(len(key), np.int64)),
            "present": pa.array(np.ones(len(key), np.int64)),
        })

    unioned = orders.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True).union(
        li.map_batches(build_side, batch_format="pyarrow", zero_copy_batch=True)
    )

    def resolve(group: pa.Table) -> pa.Table:
        present = group.column("present").to_numpy().astype(np.int64)
        key = group.column("o_orderkey").to_numpy().astype(np.int64)
        probe_side = present == 0
        build_keys = np.unique(key[~probe_side])
        k = key[probe_side]
        hit = build_keys[np.searchsorted(build_keys, k).clip(max=len(build_keys) - 1)] == k if len(build_keys) else np.zeros(len(k), bool)
        price = group.column("price_cents").to_numpy().astype(np.int64)[probe_side]
        return pa.table({
            "o_orderkey": pa.array(k[hit], type=pa.int64()),
            "price_cents": pa.array(price[hit], type=pa.int64()),
        })

    return hash_exchange(unioned, "o_orderkey", resolve, n_parts)


SQL_ORDERS_WITH_LINEITEMS_BLOOM = """
    SELECT CAST(o.o_orderkey AS BIGINT) AS o_orderkey,
           CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS price_cents
    FROM orders o
    WHERE EXISTS (SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)
"""


def build_queries_ext15() -> dict:
    return {
        "sample_per_lang": q_sample_per_lang,
        "hll_type_overlap": q_hll_type_overlap,
        "orders_with_lineitems_bloom": q_orders_with_lineitems_bloom,
    }


def build_oracles_ext15() -> dict:
    return {
        "sample_per_lang": SQL_SAMPLE_PER_LANG,
        # register-replay oracle: the estimate is approximate vs exact
        # distinct but fully deterministic, so SQL replays it value-exactly
        "hll_type_overlap": _sql_hll_type_overlap(),
        "orders_with_lineitems_bloom": SQL_ORDERS_WITH_LINEITEMS_BLOOM,
    }
