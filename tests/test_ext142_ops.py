"""Extension batch 142: DOW×hour heat map + name/key audit."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "customer", "supplier"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df):
    return (df.reindex(sorted(df.columns), axis=1)
              .sort_values(by=sorted(df.columns))
              .reset_index(drop=True)
              .astype(str))


def test_heatmap_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext142 import (
        SQL_DOW_HOUR_HEATMAP, q_dow_hour_heatmap,
    )

    d = q_dow_hour_heatmap(SF).to_pandas()
    o = con.execute(SQL_DOW_HOUR_HEATMAP).df()
    assert len(d) == len(o) == 168
    assert _norm(d).equals(_norm(o))


def test_heatmap_identities(ray_session, con):
    """Cross-term deviations sum to zero over every row and column
    (the chi-square residual identity), counts total to the table."""
    from polylabel_rs_ray.pipelines.queries_ext142 import (
        q_dow_hour_heatmap,
    )

    d = q_dow_hour_heatmap(SF).to_pandas()
    total = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(d["n"].sum()) == total
    for _dow, g in d.groupby("dow"):
        assert int(g["dev"].sum()) == 0
    for _hod, g in d.groupby("hod"):
        assert int(g["dev"].sum()) == 0


def test_name_audit_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext142 import (
        SQL_NAME_KEY_CONSISTENCY_AUDIT, q_name_key_consistency_audit,
    )

    d = q_name_key_consistency_audit(SF).to_pandas()
    o = con.execute(SQL_NAME_KEY_CONSISTENCY_AUDIT).df()
    assert len(d) == len(o) == 2
    assert _norm(d).equals(_norm(o))


def test_name_audit_brute(ray_session, con):
    """Pure-Python parse twin on both tables."""
    from polylabel_rs_ray.pipelines.queries_ext142 import (
        q_name_key_consistency_audit,
    )

    d = q_name_key_consistency_audit(SF).to_pandas().set_index("tbl")
    for tbl, key, name, prefix in (
        ("customer", "c_custkey", "c_name", "Customer"),
        ("supplier", "s_suppkey", "s_name", "Supplier"),
    ):
        rows = con.execute(f"SELECT {key} k, {name} n FROM {tbl}").df()
        n_match = n_bad = 0
        for r in rows.itertuples():
            s = r.n
            if (s.startswith(prefix + "#") and len(s) == len(prefix) + 10
                    and s[len(prefix) + 1:].isdigit()):
                if int(s[len(prefix) + 1:]) == r.k:
                    n_match += 1
            else:
                n_bad += 1
        row = d.loc[tbl]
        assert row["n_rows"] == len(rows)
        assert row["n_key_match"] == n_match
        assert row["n_bad_format"] == n_bad
