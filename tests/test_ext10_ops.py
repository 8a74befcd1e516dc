"""Extension operators batch 11 (queries_ext10): robust outliers, deep
paging."""

import duckdb
import numpy as np
import pyarrow as pa
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
    c.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def test_value_outliers_match_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext10 import (
        OUTLIER_K,
        SQL_VALUE_OUTLIERS,
        q_value_outliers,
    )

    o = _compare(q_value_outliers, SQL_VALUE_OUTLIERS, con)
    # every flagged row really violates the MAD fence
    med, mad = con.execute(
        "WITH v AS (SELECT CAST(ROUND(value*100) AS BIGINT) c FROM events), "
        "m AS (SELECT quantile_disc(c, 0.5) med FROM v) "
        "SELECT (SELECT med FROM m), "
        "quantile_disc(abs(c - (SELECT med FROM m)), 0.5) FROM v"
    ).fetchone()
    assert (np.abs(o["value_cents"] - med) > OUTLIER_K * mad).all()


def test_value_page_matches_duckdb(ray_session, con):
    from polylabel_rs_ray.pipelines.queries_ext10 import (
        PAGE_LIMIT,
        PAGE_OFFSET,
        SQL_VALUE_PAGE,
        q_value_page,
    )

    p = _compare(q_value_page, SQL_VALUE_PAGE, con)
    assert len(p) == PAGE_LIMIT
    assert p["rank"].min() == PAGE_OFFSET + 1
    # page values descend (with id tiebreak) and sit strictly below the
    # top-OFFSET values
    kth = con.execute(
        f"SELECT CAST(ROUND(value*100) AS BIGINT) FROM events "
        f"ORDER BY value DESC, event_id LIMIT 1 OFFSET {PAGE_OFFSET - 1}"
    ).fetchone()[0]
    assert (p["value_cents"] <= kth).all()
