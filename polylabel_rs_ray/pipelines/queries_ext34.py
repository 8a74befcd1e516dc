"""Round-3 extension operators, batch 34: distributed BPE tokenizer training.

``bpe_merges`` — byte-pair-encoding merge-rule learning (Sennrich et al.
2016; the GPT-2 tokenizer-training algorithm) over the document corpus:

1. corpus -> word-frequency table: vectorized Arrow word extraction
   (utf8 lower + whitespace split + ``^[a-z]+$`` filter), per-batch
   combine, then ONE high-cardinality hash exchange summing counts — the
   only pass that touches the full corpus,
2. each distinct word becomes its character-symbol sequence plus an
   end-of-word marker, held as an Arrow ``list<string>`` column,
3. K merge rounds over the DISTINCT-WORD table (vocabulary-sized, not
   corpus-sized — the key scale property of BPE training): adjacent
   symbol pairs come from flattened list-offset arithmetic (no per-word
   Python in the pair pass), pair counts aggregate through the
   high-cardinality exchange, the global argmax folds per-block top-1
   rows on the driver (O(blocks) rows, bounded), and the winning pair is
   applied with a vectorized greedy left-to-right scan (run-parity keeps
   the exact non-overlap semantics, e.g. ``a a a`` -> ``aa a``).

Ties break by (count DESC, pair ASC) where pair order is the
``\\x1f``-joined symbol string — identical to tuple order because the
separator sorts below every symbol byte.

Iterative by construction, so no SQL oracle (rows-only); pinned exactly
in tests against a pure-Python reference BPE on the same corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

N_MERGES = 8
EOW = "</w>"
SEP = "\x1f"


def _word_freq_table(sf_dir: str):
    """Corpus -> distinct (word, cnt) Dataset via one hash exchange."""
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(
            pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
        )
        words = words.filter(pc.match_substring_regex(words, r"^[a-z]+$"))
        t = pa.table({"word": words})
        out = t.group_by(["word"]).aggregate([("word", "count")])
        return pa.table({
            "word": out.column("word"),
            "cnt": pc.cast(out.column("word_count"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_aggregate(
        partials, ["word"], [("sum", "cnt", "cnt")]
    )


def _init_symbols(batch: pa.Table) -> pa.Table:
    """word -> list<string> of characters + EOW (distinct-word table only —
    bounded vocabulary, not corpus-scale)."""
    words = batch.column("word").to_pylist()
    syms = [list(w) + [EOW] for w in words]
    return pa.table({
        "syms": pa.array(syms, type=pa.list_(pa.string())),
        "cnt": batch.column("cnt"),
    })


def _flat_and_offsets(batch: pa.Table):
    syms = batch.column("syms")
    if isinstance(syms, pa.ChunkedArray):
        syms = syms.combine_chunks()
    offs = syms.offsets.to_numpy().astype(np.int64)
    # normalize away any non-zero start (sliced arrays): indices below are
    # relative to the returned flat values
    values = syms.values.slice(offs[0], offs[-1] - offs[0])
    return values, offs - offs[0]


def _pair_partials(batch: pa.Table) -> pa.Table:
    """Adjacent-pair weighted counts for one block of the word table."""
    flat, offs = _flat_and_offsets(batch)
    cnt = batch.column("cnt").to_numpy().astype(np.int64)
    total = len(flat)
    if total < 2:
        return pa.table({
            "pair": pa.array([], type=pa.string()),
            "w": pa.array([], type=pa.int64()),
        })
    left = flat.slice(0, total - 1)
    right = flat.slice(1, total - 1)
    pair = pc.binary_join_element_wise(left, right, SEP)
    # drop cross-word positions: i is invalid when i+1 is a word start
    valid = np.ones(total - 1, dtype=bool)
    valid[offs[1:-1] - 1] = False
    n_per = np.diff(offs)
    weights = np.repeat(cnt, np.maximum(n_per - 1, 0))
    t = pa.table({
        "pair": pair.filter(pa.array(valid)),
        "w": pa.array(weights, type=pa.int64()),
    })
    out = t.group_by(["pair"]).aggregate([("w", "sum")])
    return pa.table({"pair": out.column("pair"), "w": out.column("w_sum")})


def _best_pair(word_table) -> tuple[str, int] | None:
    """Global (count DESC, pair ASC) argmax: exchange-aggregated pair counts,
    per-block top-1, bounded driver fold."""
    from .agg import grouped_aggregate

    pairs = word_table.map_batches(
        _pair_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    counts = grouped_aggregate(
        pairs, ["pair"], [("sum", "w", "w")]
    )

    def block_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        p = np.array(batch.column("pair").to_pylist(), dtype=object)
        w = batch.column("w").to_numpy().astype(np.int64)
        order = np.lexsort((p, -w))
        return batch.take(pa.array([int(order[0])], type=pa.int64()))

    tops = counts.map_batches(
        block_top, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # O(blocks) rows — bounded
    if tops.empty:
        return None
    tops = tops.sort_values(["w", "pair"], ascending=[False, True])
    row = tops.iloc[0]
    return str(row["pair"]), int(row["w"])


def _apply_merge(a: str, b: str):
    """Vectorized greedy left-to-right merge of adjacent (a, b) into ab."""
    merged = a + b

    def apply(batch: pa.Table) -> pa.Table:
        flat, offs = _flat_and_offsets(batch)
        total = len(flat)
        cnt = batch.column("cnt")
        if total < 2:
            return pa.table({"syms": batch.column("syms"), "cnt": cnt})
        is_a = pc.equal(flat.slice(0, total - 1), a).to_numpy(zero_copy_only=False)
        is_b = pc.equal(flat.slice(1, total - 1), b).to_numpy(zero_copy_only=False)
        cand = (is_a & is_b).astype(bool)
        cand[offs[1:-1] - 1] = False  # cross-word
        p = np.nonzero(cand)[0]
        if len(p) == 0:
            return pa.table({"syms": batch.column("syms"), "cnt": cnt})
        # greedy non-overlap: within each run of consecutive positions keep
        # every other one starting from the first (exact left-to-right rule;
        # runs only arise when a == b, e.g. 'a a a' -> 'aa a')
        run_start = np.concatenate([[0], np.nonzero(np.diff(p) != 1)[0] + 1])
        run_id = np.repeat(np.arange(len(run_start)), np.diff(np.r_[run_start, len(p)]))
        keep = ((np.arange(len(p)) - run_start[run_id]) % 2) == 0
        p = p[keep]

        sym_np = np.array(flat.to_pylist(), dtype=object)
        sym_np[p] = merged
        drop = np.zeros(total, dtype=bool)
        drop[p + 1] = True
        new_flat = sym_np[~drop]
        word_of = np.searchsorted(offs, p, side="right") - 1
        losses = np.bincount(word_of, minlength=len(offs) - 1)
        new_offs = offs - np.concatenate([[0], np.cumsum(losses)])
        syms_arr = pa.ListArray.from_arrays(
            pa.array(new_offs - new_offs[0], type=pa.int32()),
            pa.array(new_flat.tolist(), type=pa.string()),
        )
        return pa.table({"syms": syms_arr, "cnt": cnt})

    return apply


def train_bpe(sf_dir: str, n_merges: int = N_MERGES) -> list[tuple[str, str, int]]:
    """Run the distributed merge loop; returns [(left, right, count)]."""
    wt = _word_freq_table(sf_dir).map_batches(
        _init_symbols, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        best = _best_pair(wt)
        if best is None:
            break
        pair, w = best
        a, b = pair.split(SEP)
        merges.append((a, b, w))
        # checkpoint the (bounded, vocabulary-sized) word table per round
        wt = wt.map_batches(
            _apply_merge(a, b), batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
    return merges


def q_bpe_merges(sf_dir: str, n_merges: int = N_MERGES):
    import ray
    merges = train_bpe(sf_dir, n_merges)
    t = pa.table({
        "rank": pa.array(np.arange(1, len(merges) + 1), type=pa.int64()),
        "left": pa.array([m[0] for m in merges], type=pa.string()),
        "right": pa.array([m[1] for m in merges], type=pa.string()),
        "pair_count": pa.array([m[2] for m in merges], type=pa.int64()),
    })
    return ray.data.from_arrow(t)


def build_queries_ext34() -> dict:
    return {"bpe_merges": q_bpe_merges}


def build_oracles_ext34() -> dict:
    return {}
