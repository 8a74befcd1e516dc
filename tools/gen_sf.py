"""Deterministic synthetic-table generator for scale factors the driver
did not ship (sf1 = 10x sf0.1), matching /root/testdata's schema and
distributions exactly (TESTDATA.md; seeded, reproducible, NO external
data).  Used for the round-4 scale-proof artifacts: a full correctness
sweep + bench at 10x the shipped data.

    python tools/gen_sf.py 1.0 /tmp/testdata/sf1

Shapes mirror the driver tables (verified against sf0.1):
  customer 150k/sf-unit, supplier 10k, part 200k, orders 1.5M,
  lineitem 6M, events 1M (users = customer/10), documents 500k*sf with
  5% exact-copy-plus-" dup" near-duplicates.  region/nation are the
  fixed 5/25-row dimensions, copied verbatim from the shipped sf0.1.
Row groups: ~128k rows for the big fact tables, ~4k rows for the
per-row-expensive documents table — BOTH Ray's parquet reader and
DuckDB's scan parallelize by row group, and a single-group documents
file serializes every oracle's text kernel (measured: the sf1
levenshtein oracle pinned one core for 30+ minutes before this).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.1"

VOCAB = ("a agg batch big column customer data fast filter group hash join "
         "key line merge order part query row scan slow small sort spark "
         "stream table the value vector window").split()
ADJ = ["blue", "cold", "hot", "large", "new", "old", "red", "small"]
NOUN = ["anvil", "bolt", "gear", "gizmo", "plate", "ring", "rod", "widget"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PTYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
LANGS = ["en", "de", "es", "fr", "zh"]
LANG_W = [0.4, 0.15, 0.15, 0.15, 0.15]
DAY_US = 86_400_000_000
EPOCH_1995 = np.datetime64("1995-01-01").astype("datetime64[us]").astype(np.int64)
EPOCH_2024 = np.datetime64("2024-01-01").astype("datetime64[us]").astype(np.int64)
ORDER_DAYS = (np.datetime64("2001-08-01") - np.datetime64("1995-01-01")).astype(int)
SHIP_DAYS = (np.datetime64("2001-11-04") - np.datetime64("1995-01-02")).astype(int)
SHIP_BASE = EPOCH_1995 + DAY_US  # 1995-01-02


SMALL_GROUP = 4096  # documents: parallelize per-row-heavy kernels


def _write(path: str, table: pa.Table, rows_per_group: int = 131072) -> None:
    pq.write_table(table, path, row_group_size=rows_per_group)


def _ts_col(us: np.ndarray) -> pa.Array:
    return pa.array(us, type=pa.timestamp("us"))


def generate(sf: float, out_dir: str, seed: int = 42) -> None:
    os.makedirs(out_dir, exist_ok=True)
    unit = sf / 0.1  # multiples of the shipped sf0.1 row counts
    n_cust = int(15000 * unit)
    n_supp = int(1000 * unit)
    n_part = int(20000 * unit)
    n_orders = int(150000 * unit)
    n_line = int(600000 * unit)
    n_events = int(100000 * unit)
    n_users = n_cust // 10
    n_docs = int(5000 * unit)
    rng = np.random.default_rng(seed + int(round(sf * 1000)))

    # fixed dims verbatim
    for t in ("region", "nation"):
        pq.write_table(pq.read_table(f"{SRC}/{t}.parquet"), f"{out_dir}/{t}.parquet")

    # customer
    ck = np.arange(n_cust, dtype=np.int64)
    _write(f"{out_dir}/customer.parquet", pa.table({
        "c_custkey": pa.array(ck),
        "c_name": pa.array([f"Customer#{i:09d}" for i in ck], type=pa.string()),
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust).astype(np.int32)),
        "c_acctbal": pa.array(np.round(rng.uniform(-1000, 10000, n_cust), 2)),
        "c_mktsegment": pa.array(np.array(SEGMENTS, dtype=object)[
            rng.integers(0, len(SEGMENTS), n_cust)]),
    }))

    # supplier
    sk = np.arange(n_supp, dtype=np.int64)
    _write(f"{out_dir}/supplier.parquet", pa.table({
        "s_suppkey": pa.array(sk),
        "s_name": pa.array([f"Supplier#{i:09d}" for i in sk], type=pa.string()),
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp).astype(np.int32)),
        "s_acctbal": pa.array(np.round(rng.uniform(-1000, 10000, n_supp), 2)),
    }))

    # part
    pk = np.arange(n_part, dtype=np.int64)
    adj = np.array(ADJ, dtype=object)[rng.integers(0, len(ADJ), n_part)]
    noun = np.array(NOUN, dtype=object)[rng.integers(0, len(NOUN), n_part)]
    _write(f"{out_dir}/part.parquet", pa.table({
        "p_partkey": pa.array(pk),
        "p_name": pa.array([f"{a} {b}" for a, b in zip(adj, noun)],
                           type=pa.string()),
        "p_brand": pa.array([f"Brand#{i}" for i in
                             rng.integers(1, 26, n_part)], type=pa.string()),
        "p_type": pa.array(np.array(PTYPES, dtype=object)[
            rng.integers(0, len(PTYPES), n_part)]),
        "p_size": pa.array(rng.integers(1, 51, n_part).astype(np.int32)),
        "p_retailprice": pa.array(np.round(900.0 + 0.1 * (pk % 1000), 1)),
    }))

    # orders
    ok = np.arange(n_orders, dtype=np.int64)
    odate = EPOCH_1995 + rng.integers(0, ORDER_DAYS + 1, n_orders) * DAY_US
    _write(f"{out_dir}/orders.parquet", pa.table({
        "o_orderkey": pa.array(ok),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_orders).astype(np.int64)),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"], dtype=object)[
            rng.integers(0, 3, n_orders)]),
        "o_totalprice": pa.array(np.round(rng.uniform(1000, 500000, n_orders), 2)),
        "o_orderdate": _ts_col(odate),
        "o_orderpriority": pa.array(np.array(PRIORITIES, dtype=object)[
            rng.integers(0, len(PRIORITIES), n_orders)]),
    }))

    # lineitem
    sdate = SHIP_BASE + rng.integers(0, SHIP_DAYS + 1, n_line) * DAY_US
    _write(f"{out_dir}/lineitem.parquet", pa.table({
        "l_orderkey": pa.array(rng.integers(0, n_orders, n_line).astype(np.int64)),
        "l_partkey": pa.array(rng.integers(0, n_part, n_line).astype(np.int64)),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_line).astype(np.int64)),
        "l_linenumber": pa.array(rng.integers(1, 8, n_line).astype(np.int32)),
        "l_quantity": pa.array(rng.integers(1, 51, n_line).astype(np.float64)),
        "l_extendedprice": pa.array(np.round(rng.uniform(900, 105000, n_line), 2)),
        "l_discount": pa.array(np.round(rng.uniform(0, 0.1, n_line), 2)),
        "l_tax": pa.array(np.round(rng.uniform(0, 0.08, n_line), 2)),
        "l_returnflag": pa.array(np.array(["A", "N", "R"], dtype=object)[
            rng.integers(0, 3, n_line)]),
        "l_linestatus": pa.array(np.array(["F", "O"], dtype=object)[
            rng.integers(0, 2, n_line)]),
        "l_shipdate": _ts_col(sdate),
    }))

    # events (ts = sorted uniform over Jan 2024)
    ts = np.sort(rng.integers(0, 30 * DAY_US, n_events)) + EPOCH_2024
    _write(f"{out_dir}/events.parquet", pa.table({
        "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
        "ts": _ts_col(ts),
        "user_id": pa.array(rng.integers(0, n_users, n_events).astype(np.int64)),
        "event_type": pa.array(np.array(EVENT_TYPES, dtype=object)[
            rng.integers(0, len(EVENT_TYPES), n_events)]),
        "value": pa.array(np.round(rng.exponential(50.0, n_events), 2)),
        "props": pa.array([f'{{"k": {k}}}' for k in
                           rng.integers(0, 100, n_events)], type=pa.string()),
    }))

    # documents: random 30-word-vocab texts; 5% are an exact copy of a
    # random other base doc's text + " dup" (the shipped near-dup planting)
    vocab = np.array(VOCAB, dtype=object)
    lens = rng.integers(10, 101, n_docs)
    texts = [" ".join(vocab[rng.integers(0, len(vocab), ln)]) for ln in lens]
    n_dup = n_docs // 20
    dup_ids = rng.choice(n_docs, size=n_dup, replace=False)
    is_dup = np.zeros(n_docs, dtype=bool)
    is_dup[dup_ids] = True
    base_ids = np.flatnonzero(~is_dup)
    for d in dup_ids:
        texts[d] = texts[int(rng.choice(base_ids))] + " dup"
    langs = np.array(LANGS, dtype=object)[
        rng.choice(len(LANGS), size=n_docs, p=LANG_W)]
    _write(f"{out_dir}/documents.parquet", pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(langs),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)],
                           type=pa.string()),
        "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
    }), rows_per_group=SMALL_GROUP)


if __name__ == "__main__":
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    out = sys.argv[2] if len(sys.argv) > 2 else f"/tmp/testdata/sf{sf:g}"
    generate(sf, out)
    print(out)
