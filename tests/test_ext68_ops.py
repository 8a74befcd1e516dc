"""Extension batch 68: interval-union coverage + Naive Bayes counts."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_coverage_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext68 import (
        SQL_USER_ACTIVITY_COVERAGE, q_user_activity_coverage,
    )

    d = q_user_activity_coverage(SF).to_pandas()
    o = con.execute(SQL_USER_ACTIVITY_COVERAGE).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_coverage_partition_invariance(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext68 import (
        q_user_activity_coverage,
    )

    a = _norm(q_user_activity_coverage(SF, n_parts=1).to_pandas())
    b = _norm(q_user_activity_coverage(SF, n_parts=5).to_pandas())
    assert a.equals(b)


def test_coverage_bounds(ray_session, con):
    """Union coverage is bounded: n_events*W from above (disjoint),
    W from below (at least one island); islands <= events."""
    from polylabel_rs_ray.pipelines.queries_ext68 import (
        WINDOW_US, q_user_activity_coverage,
    )

    d = q_user_activity_coverage(SF).to_pandas().set_index("user_id")
    per_user = con.execute(
        "SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id"
    ).df().set_index("user_id")
    for uid, row in d.iterrows():
        n = int(per_user.loc[uid, "n"])
        assert WINDOW_US <= row["covered_us"] <= n * WINDOW_US
        assert 1 <= row["n_islands"] <= n


def test_coverage_brute_force_one_user(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext68 import (
        WINDOW_US, q_user_activity_coverage,
    )

    d = q_user_activity_coverage(SF).to_pandas()
    uid = int(d["user_id"].iloc[0])
    ts = con.execute(
        f"SELECT CAST(epoch_us(ts) AS BIGINT) AS s FROM events "
        f"WHERE user_id = {uid} ORDER BY s").df()["s"].to_numpy()
    covered, islands = 0, 0
    cur_s, cur_e = None, None
    for s in ts:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, s + WINDOW_US
            islands += 1
        else:
            cur_e = max(cur_e, s + WINDOW_US)
    covered += cur_e - cur_s
    row = d[d["user_id"] == uid].iloc[0]
    assert int(row["n_islands"]) == islands
    assert int(row["covered_us"]) == covered


def test_nb_counts_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext68 import (
        SQL_NB_WORD_COUNTS, q_nb_word_counts,
    )

    d = q_nb_word_counts(SF)
    o = con.execute(SQL_NB_WORD_COUNTS).df()
    assert len(d) == len(o) >= 1
    assert _norm(d).equals(_norm(o))


def test_nb_counts_consistency(ray_session):
    """Per-lang totals equal the sum of that lang's word counts, and the
    smoothed likelihoods sum to <= 1 per lang (strictly < 1 unless the
    vocab is fully observed in that lang)."""
    from polylabel_rs_ray.pipelines.queries_ext68 import q_nb_word_counts

    d = q_nb_word_counts(SF)
    for lang, g in d.groupby("lang"):
        assert int(g["c"].sum()) == int(g["lang_total"].iloc[0])
        v = int(g["vocab_size"].iloc[0])
        tot = int(g["lang_total"].iloc[0])
        mass = float(((g["c"] + 1) / (tot + v)).sum())
        assert mass <= 1.0 + 1e-12
