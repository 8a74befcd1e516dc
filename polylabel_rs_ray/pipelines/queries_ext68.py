"""Round-3 extension operators, batch 68: interval-union coverage and
Naive Bayes sufficient counts.

``user_activity_coverage`` — the gaps-and-islands aggregate: each
event opens a fixed 15-minute activity interval; per user, the number
of merged islands and the total covered microseconds of their union.
Fixed-width intervals make the merge a single vectorized sweep: after
one hash exchange co-locates a user's events and a lexsort orders
them, an island starts wherever ``s_i > s_{i-1} + W`` (or the user
changes), and covered time telescopes to ``Σ (last_s + W - first_s)``
per island — exact integer microseconds, reduceat over island starts.

``nb_word_counts`` — the Naive Bayes training table: per (lang, word)
token counts plus the per-lang token total and the global vocabulary
size, i.e. everything the smoothed likelihood
``(c + 1) / (total + V)`` needs, kept as exact integers (the
classifier itself is a consumer-side log-sum over these).  Group
count is lang x vocabulary — bounded — so the standard map-side
combine applies; the two scalars fold from the bounded table itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_exchange

WINDOW_US = 15 * 60 * 1_000_000  # 15-minute activity window


def q_user_activity_coverage(sf_dir: str, n_parts: int | None = None):
    import ray

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, type=pa.int64()),
            "s": pc.cast(batch.column("ts"), pa.int64()),
        })

    def per_partition(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        s = group.column("s").to_numpy().astype(np.int64)
        order = np.lexsort((s, uid))
        uid, s = uid[order], s[order]
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        gap = np.concatenate([[True], s[1:] > s[:-1] + WINDOW_US])
        island_start = new_user | gap
        starts = np.flatnonzero(island_start)
        ends = np.concatenate([starts[1:], [len(s)]]) - 1
        covered = (s[ends] + WINDOW_US) - s[starts]
        # fold islands per user: map each island to its user row
        island_user = uid[starts]
        u_first = np.flatnonzero(
            np.concatenate([[True], island_user[1:] != island_user[:-1]]))
        users = island_user[u_first]
        n_islands = np.diff(np.concatenate([u_first, [len(starts)]]))
        covered_us = np.add.reduceat(covered, u_first)
        return pa.table({
            "user_id": pa.array(users, type=pa.int64()),
            "n_islands": pa.array(n_islands.astype(np.int64),
                                  type=pa.int64()),
            "covered_us": pa.array(covered_us, type=pa.int64()),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    ).map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    return hash_exchange(ds, "user_id", per_partition, n_parts)


SQL_USER_ACTIVITY_COVERAGE = f"""
WITH iv AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS s FROM events
),
flag AS (
  SELECT user_id, s,
         CASE WHEN LAG(s) OVER (PARTITION BY user_id ORDER BY s) IS NULL
               OR s > LAG(s) OVER (PARTITION BY user_id ORDER BY s)
                      + {WINDOW_US}
              THEN 1 ELSE 0 END AS new_island
  FROM iv
),
grp AS (
  SELECT user_id, s,
         SUM(new_island) OVER (PARTITION BY user_id ORDER BY s
                               ROWS UNBOUNDED PRECEDING) AS gid
  FROM flag
),
isl AS (
  SELECT user_id, gid,
         MAX(s) + {WINDOW_US} - MIN(s) AS covered
  FROM grp GROUP BY user_id, gid
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(SUM(covered) AS BIGINT) AS covered_us
FROM isl GROUP BY user_id
"""


def q_nb_word_counts(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def counts(batch: pa.Table) -> pa.Table:
        langs: list[str] = []
        words: list[str] = []
        for lang, t in zip(batch.column("lang").to_pylist(),
                           batch.column("text").to_pylist()):
            toks = (t or "").lower().split()
            langs.extend([lang] * len(toks))
            words.extend(toks)
        tbl = pa.table({
            "lang": pa.array(langs, type=pa.string()),
            "word": pa.array(words, type=pa.string()),
        })
        out = tbl.group_by(["lang", "word"]).aggregate([("word", "count")])
        return pa.table({
            "lang": out.column("lang"),
            "word": out.column("word"),
            "c": pc.cast(out.column("word_count"), pa.int64()),
        })

    lw = grouped_aggregate(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["lang", "text"])
        .map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "word"], [("sum", "c", "c")],
    ).to_pandas()  # bounded: lang x vocabulary

    totals = lw.groupby("lang")["c"].sum().to_dict()
    vocab_size = lw["word"].nunique()
    lw["lang_total"] = lw["lang"].map(totals).astype("int64")
    lw["vocab_size"] = np.int64(vocab_size)
    lw["c"] = lw["c"].astype("int64")
    return lw[["lang", "word", "c", "lang_total",
               "vocab_size"]].reset_index(drop=True)


SQL_NB_WORD_COUNTS = r"""
WITH toks AS (
    SELECT lang, w AS word
    FROM (SELECT lang, regexp_extract_all(lower(text), '\S+') AS t
          FROM documents),
         LATERAL (SELECT unnest(t) AS w)
),
lw AS (
    SELECT lang, word, CAST(COUNT(*) AS BIGINT) AS c
    FROM toks GROUP BY lang, word
),
lt AS (SELECT lang, CAST(SUM(c) AS BIGINT) AS lang_total FROM lw GROUP BY lang),
v AS (SELECT CAST(COUNT(DISTINCT word) AS BIGINT) AS vocab_size FROM lw)
SELECT lw.lang, lw.word, lw.c, lt.lang_total, v.vocab_size
FROM lw JOIN lt ON lw.lang = lt.lang, v
"""


def build_queries_ext68() -> dict:
    return {
        "user_activity_coverage": q_user_activity_coverage,
        "nb_word_counts": q_nb_word_counts,
    }


def build_oracles_ext68() -> dict:
    return {
        "user_activity_coverage": SQL_USER_ACTIVITY_COVERAGE,
        "nb_word_counts": SQL_NB_WORD_COUNTS,
    }
