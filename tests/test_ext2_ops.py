"""Extension operators batch 3 (queries_ext2): bit-equal to their DuckDB
oracles at sf0.001 plus semantic invariants, and synthetic-input tests for
the paths the random corpus never exercises (planted contamination, RANGE
window ts-peers)."""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _compare(q, sql, con):
    res = q(SF)
    d = res.to_pandas() if hasattr(res, "to_pandas") else res
    if isinstance(d, pa.Table):
        d = d.to_pandas()
    o = con.execute(sql).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b), sql
    return a


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents", "orders", "customer"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_contamination_check_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        CONTAM_BENCH_MOD,
        SQL_CONTAMINATION_CHECK,
        q_contamination_check,
    )

    d = _compare(q_contamination_check, SQL_CONTAMINATION_CHECK, con)
    # every non-benchmark doc appears exactly once
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    n_bench = con.execute(
        f"SELECT COUNT(*) FROM documents WHERE doc_id % {CONTAM_BENCH_MOD} = 0"
    ).fetchone()[0]
    assert len(d) == n_docs - n_bench and d["doc_id"].is_unique
    assert (d["contaminated"] == (d["n_hits"] > 0)).all()


def test_contamination_check_planted(ray_session, tmp_path):
    """The random corpus shares no 8-grams; plant real leakage and verify
    the hit path end-to-end (engine vs a fresh DuckDB oracle on the same
    synthetic table)."""
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        CONTAM_BENCH_MOD,
        SQL_CONTAMINATION_CHECK,
        q_contamination_check,
    )

    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rng = np.random.default_rng(3)
    words = ["w%d" % i for i in range(50)]
    rows = []
    for doc_id in range(0, 4 * CONTAM_BENCH_MOD):
        if doc_id % CONTAM_BENCH_MOD == 0:
            text = bench_text
        elif doc_id % 10 == 1:  # contaminated: embeds a bench 8-gram
            filler = " ".join(rng.choice(words, 12))
            text = filler + " alpha beta gamma delta epsilon zeta eta theta " + filler
        else:
            text = " ".join(rng.choice(words, 40))
        rows.append({"doc_id": doc_id, "text": text})
    tbl = pa.Table.from_pylist(rows)
    pq.write_table(tbl, os.path.join(tmp_path, "documents.parquet"))

    d = q_contamination_check(str(tmp_path)).to_pandas().sort_values("doc_id")
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    o = con.execute(SQL_CONTAMINATION_CHECK).df().sort_values("doc_id")
    assert d.reset_index(drop=True).equals(
        o[d.columns].astype(d.dtypes.to_dict()).reset_index(drop=True)
    )
    planted = d["doc_id"] % 10 == 1
    assert d.loc[planted, "contaminated"].all()
    assert not d.loc[~planted, "contaminated"].any()


def test_time_window_avg_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        SQL_TIME_WINDOW_AVG,
        q_time_window_avg,
    )

    d = _compare(q_time_window_avg, SQL_TIME_WINDOW_AVG, con)
    assert (d["w_n"] >= 1).all()  # window always includes the row itself
    np.testing.assert_array_equal(
        d["w_avg"].to_numpy(),
        d["w_sum_cents"].to_numpy() / (d["w_n"].to_numpy() * 100),
    )


def test_time_window_avg_ts_peers(ray_session, tmp_path):
    """RANGE semantics: rows sharing a timestamp are window peers — all of
    them (even 'later' event_ids) count in each other's window.  The
    random events table has distinct timestamps, so craft duplicates."""
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        SQL_TIME_WINDOW_AVG,
        q_time_window_avg,
    )

    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    eid = 0
    for uid in (1, 2):
        for off_min, val in [(0, 1.0), (0, 2.0), (0, 4.0), (30, 8.0), (30, 16.0),
                             (61, 32.0), (90, 64.0), (200, 1.28)]:
            rows.append({
                "event_id": eid,
                "ts": (base + np.timedelta64(off_min * 60 + uid, "s")).item(),
                "user_id": uid,
                "value": val,
            })
            eid += 1
    tbl = pa.Table.from_pylist(rows).cast(
        pa.schema([
            ("event_id", pa.int64()),
            ("ts", pa.timestamp("us")),
            ("user_id", pa.int64()),
            ("value", pa.float64()),
        ])
    )
    pq.write_table(tbl, os.path.join(tmp_path, "events.parquet"))

    d = (
        q_time_window_avg(str(tmp_path), n_parts=2)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
    o = con.execute(SQL_TIME_WINDOW_AVG).df().sort_values("event_id")
    assert d.equals(
        o[d.columns].astype(d.dtypes.to_dict()).reset_index(drop=True)
    )
    # the three ts-peers at offset 0 each see all three values (1+2+4)
    peers = d[d["event_id"].isin([0, 1, 2])]
    assert (peers["w_n"] == 3).all() and (peers["w_sum_cents"] == 700).all()
    # offset 61 min: the offset-0 peers have aged out, offset-30 remain
    r61 = d[d["event_id"] == 5].iloc[0]
    assert r61["w_n"] == 3 and r61["w_sum_cents"] == (800 + 1600 + 3200)


def test_rank_ntile_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        NTILE_N,
        SQL_NTILE_VALUES,
        SQL_PRIORITY_RANK,
        q_ntile_values,
        q_priority_rank,
    )

    r = _compare(q_priority_rank, SQL_PRIORITY_RANK, con)
    assert (r["drnk"] <= r["rnk"]).all()  # dense rank never exceeds rank
    # within a (customer, priority) run every row shares both ranks
    g = r.groupby(["o_custkey", "o_orderpriority"])[["rnk", "drnk"]].nunique()
    assert (g == 1).all().all()

    t = _compare(q_ntile_values, SQL_NTILE_VALUES, con)
    sizes = t["tile"].value_counts()
    assert set(sizes.index) == set(range(1, NTILE_N + 1))
    assert sizes.max() - sizes.min() <= 1  # NTILE balance invariant


def test_tfidf_top_terms_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        TFIDF_DF_MIN,
        TFIDF_K,
        SQL_TFIDF_TOP_TERMS,
        q_tfidf_top_terms,
    )

    d = _compare(q_tfidf_top_terms, SQL_TFIDF_TOP_TERMS, con)
    assert (d.groupby("doc_id").size() <= TFIDF_K).all()
    assert (d["df"] >= TFIDF_DF_MIN).all()
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    np.testing.assert_array_equal(
        d["score"].to_numpy(),
        d["tf"].to_numpy().astype(np.float64) * n_docs / d["df"].to_numpy(),
    )


def test_tfidf_dist_matches_broadcast_and_duckdb(ray_session, con):
    """The no-broadcast-vocabulary TF-IDF (two co-partitioned shuffles)
    is bit-equal to both the DuckDB oracle and the broadcast path, with
    more than one term-hash partition actually exercised."""
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        SQL_TFIDF_TOP_TERMS,
        q_tfidf_top_terms,
        q_tfidf_top_terms_dist,
    )

    d = _compare(lambda sf: q_tfidf_top_terms_dist(sf, n_parts=4),
                 SQL_TFIDF_TOP_TERMS, con)
    b = q_tfidf_top_terms(SF).to_pandas()
    cols = sorted(d.columns)
    assert sorted(b.columns) == cols
    b = b[cols].sort_values(cols).reset_index(drop=True)
    assert d.equals(b)


def test_gapfill_semi_paths_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext2 import (
        SQL_BIG_SPENDERS,
        SQL_EVENT_PATH_TRIGRAMS,
        SQL_USER_HOUR_GAPFILL,
        q_big_spenders,
        q_event_path_trigrams,
        q_user_hour_gapfill,
    )

    g = _compare(q_user_hour_gapfill, SQL_USER_HOUR_GAPFILL, con)
    # dense hours: per user, hr is exactly [min..max] with no gaps
    spans = g.groupby("user_id")["hr"].agg(["min", "max", "size"])
    assert (spans["size"] == spans["max"] - spans["min"] + 1).all()
    # zero-filled rows exist (the op is pointless otherwise)
    assert (g["n_events"] == 0).any()
    # total preserved
    n_events = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert g["n_events"].sum() == n_events

    s = _compare(q_big_spenders, SQL_BIG_SPENDERS, con)
    assert s["c_custkey"].is_unique

    p = _compare(q_event_path_trigrams, SQL_EVENT_PATH_TRIGRAMS, con)
    assert len(p) == 20 and (p["n"] >= 1).all()
    assert p["path"].str.count(" > ").eq(2).all()
    # genuinely the top-20: no excluded path outcounts the kept minimum
    full = con.execute(
        SQL_EVENT_PATH_TRIGRAMS.replace("LIMIT 20", "LIMIT 100000")
    ).df()
    excluded = full[~full["path"].isin(p["path"])]
    if len(excluded):
        assert excluded["n"].max() <= p["n"].min()


def test_tokens_flat_parity():
    """tokens_flat == regexp_extract_all('\\S+') on nasty whitespace."""
    from polylabel_rs_ray.pipelines.queries_ext2 import tokens_flat

    texts = ["  a b   c ", "x", "", "   ", "p q r s", "\tt1\n t2\r\n", None]
    flat, off = tokens_flat(pa.array(texts, type=pa.string()))
    got = [flat.to_pylist()[off[i]:off[i + 1]] for i in range(len(texts))]
    con = duckdb.connect()
    want = [
        con.execute("SELECT regexp_extract_all(?, '\\S+')", [t or ""]).fetchone()[0]
        for t in texts
    ]
    assert got == want
