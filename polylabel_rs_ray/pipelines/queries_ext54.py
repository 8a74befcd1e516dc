"""Round-3 extension operators, batch 54: graph + grouped-top-k analytics.

* ``degree_histogram`` — the degree distribution of the co-purchase
  graph (the first diagnostic of any graph workload: skew, hubs,
  power-law shape): distinct co-occurrence edges come from the existing
  pair machinery, per-node degrees from a bounded part-domain
  aggregate, and the output is the bounded (degree -> node count)
  histogram.  Isolated parts (degree 0) are excluded on both sides.
* ``top_terms_per_lang`` — grouped top-k (the per-stratum leaderboard):
  top-5 words by count per language label, ties to the lexicographically
  smaller word.  (lang, word) counts ride the high-cardinality exchange;
  per-block per-lang partial top-5s fold on the driver (langs bounded,
  blocks hold disjoint words so the global top-5 survives the cut).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOP_TERMS = 5


def q_degree_histogram(sf_dir: str):
    from .agg import grouped_aggregate

    from .queries import q_part_pair_counts

    edges = q_part_pair_counts(sf_dir)  # one row per distinct co-occur pair

    def endpoints(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy().astype(np.int64)
        b = batch.column("part_b").to_numpy().astype(np.int64)
        return pa.table({
            "node": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "one": pa.array(np.ones(2 * len(a), np.int64), type=pa.int64()),
        })

    degrees = grouped_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["node"], [("sum", "one", "degree")],
    )  # bounded: one row per part

    def to_hist(batch: pa.Table) -> pa.Table:
        d = batch.column("degree").to_numpy().astype(np.int64)
        t = pa.table({"degree": pa.array(d, type=pa.int64())})
        out = t.group_by(["degree"]).aggregate([("degree", "count")])
        return pa.table({
            "degree": out.column("degree"),
            "n_nodes": pc.cast(out.column("degree_count"), pa.int64()),
        })

    return grouped_aggregate(
        degrees.map_batches(to_hist, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["degree"], [("sum", "n_nodes", "n_nodes")],
    )


SQL_DEGREE_HISTOGRAM = """
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS degree FROM (
    SELECT pa AS node FROM e UNION ALL SELECT pb AS node FROM e
  ) GROUP BY node
)
SELECT degree, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY degree
"""


def q_top_terms_per_lang(sf_dir: str):
    from .agg import grouped_aggregate

    import ray
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
        counts = pc.list_value_length(words).to_numpy().astype(np.int64)
        lang = np.repeat(
            np.array(batch.column("lang").to_pylist(), dtype=object), counts
        )
        flat = pc.list_flatten(words)
        t = pa.table({
            "lang": pa.array(lang.tolist(), type=pa.string()),
            "word": flat,
        })
        t = t.filter(pc.not_equal(t.column("word"), ""))
        out = t.group_by(["lang", "word"]).aggregate([("word", "count")])
        return pa.table({
            "lang": out.column("lang"),
            "word": out.column("word"),
            "n": pc.cast(out.column("word_count"), pa.int64()),
        })

    counts = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "word"], [("sum", "n", "n")],
    )

    def block_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        lang = np.array(batch.column("lang").to_pylist(), dtype=object)
        word = np.array(batch.column("word").to_pylist(), dtype=object)
        n = batch.column("n").to_numpy().astype(np.int64)
        order = np.lexsort((word, -n, lang))
        ls = lang[order]
        starts = np.nonzero(np.r_[True, ls[1:] != ls[:-1]])[0]
        run_id = np.repeat(np.arange(len(starts)),
                           np.diff(np.r_[starts, len(ls)]))
        rank = np.arange(len(ls)) - starts[run_id]
        keep = order[rank < TOP_TERMS]
        return batch.take(pa.array(keep, type=pa.int64()))

    tops = counts.map_batches(
        block_top, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # bounded: TOP_TERMS x langs x blocks
    tops = tops.sort_values(["lang", "n", "word"],
                            ascending=[True, False, True])
    tops["rank"] = tops.groupby("lang").cumcount() + 1
    tops = tops[tops["rank"] <= TOP_TERMS]
    t = pa.table({
        "lang": pa.array(tops["lang"].tolist(), type=pa.string()),
        "rank": pa.array(tops["rank"].to_numpy().astype(np.int64),
                         type=pa.int64()),
        "word": pa.array(tops["word"].tolist(), type=pa.string()),
        "n": pa.array(tops["n"].to_numpy().astype(np.int64), type=pa.int64()),
    })
    return ray.data.from_arrow(t)


SQL_TOP_TERMS_PER_LANG = f"""
WITH toks AS (
  SELECT lang,
         unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                            w -> w <> '')) AS word
  FROM documents
), cnt AS (
  SELECT lang, word, CAST(COUNT(*) AS BIGINT) AS n FROM toks GROUP BY 1, 2
), ranked AS (
  SELECT lang, word, n,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, word) AS rank
  FROM cnt
)
SELECT lang, CAST(rank AS BIGINT) AS rank, word, n
FROM ranked WHERE rank <= {TOP_TERMS}
"""


def build_queries_ext54() -> dict:
    return {
        "degree_histogram": q_degree_histogram,
        "top_terms_per_lang": q_top_terms_per_lang,
    }


def build_oracles_ext54() -> dict:
    return {
        "degree_histogram": SQL_DEGREE_HISTOGRAM,
        "top_terms_per_lang": SQL_TOP_TERMS_PER_LANG,
    }
