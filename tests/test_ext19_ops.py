"""Extension operators batch 20 (queries_ext19): z-order layout + pruned
2-D range reads."""

import os

import duckdb
import numpy as np

SF = "/root/testdata/sf0.001"


def test_zorder_pruned_read_matches_duckdb(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext19 import (
        SQL_ZORDER_PRUNED_READ,
        q_zorder_pruned_read,
    )

    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM '{SF}/orders.parquet'")
    d = q_zorder_pruned_read(SF).to_pandas()
    o = con.execute(SQL_ZORDER_PRUNED_READ).df()
    cols = sorted(d.columns)
    a = d[cols].sort_values(cols).reset_index(drop=True)
    b = o[cols].astype(a.dtypes.to_dict()).sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b)


def test_zorder_read_actually_prunes(ray_session):
    from polylabel_rs_ray.pipelines.queries_ext19 import (
        _buckets,
        _zinterleave4,
        _zorder_checkpoint,
        ZBITS,
    )

    ckpt = _zorder_checkpoint(SF)
    all_parts = [p for p in os.listdir(ckpt) if p.startswith("zb=")]
    assert len(all_parts) > 8  # layout really fans out across z-buckets
    # the covering set of the query window is a strict subset of the layout
    import pandas as pd

    from polylabel_rs_ray.pipelines import queries_ext19 as m

    lo_days = int(pd.Timestamp(m.DATE_LO).value // 1000 // m.DAY_US)
    hi_days = int(pd.Timestamp(m.DATE_HI).value // 1000 // m.DAY_US)
    pq_, dq = _buckets(
        np.array([m.PRICE_LO_C, m.PRICE_HI_C], dtype=np.int64),
        np.array([lo_days, hi_days], dtype=np.int64),
    )
    n_cover = (pq_[1] - pq_[0] + 1) * (dq[1] - dq[0] + 1)
    assert n_cover < len(all_parts)  # 2-D selectivity survives the layout


def test_zinterleave_bijective():
    from polylabel_rs_ray.pipelines.queries_ext19 import ZBITS, _zinterleave4

    a = np.repeat(np.arange(1 << ZBITS), 1 << ZBITS)
    b = np.tile(np.arange(1 << ZBITS), 1 << ZBITS)
    z = _zinterleave4(a, b)
    assert len(np.unique(z)) == len(z)  # bijection on the 8-bit domain
    assert z.max() == (1 << (2 * ZBITS)) - 1


def test_zorder_checkpoint_follows_orders(ray_session, tmp_path, monkeypatch):
    """The z-order checkpoint is keyed by the orders table it reads: an
    unchanged table reuses it, a touched one makes it commit again."""
    import shutil
    import tempfile

    import ray

    from polylabel_rs_ray.pipelines.queries_ext19 import _zorder_checkpoint

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    os.makedirs(tempfile.tempdir)
    sf = tmp_path / "sf"
    sf.mkdir()
    shutil.copy(os.path.join(SF, "orders.parquet"), sf / "orders.parquet")
    writes = []
    real = ray.data.Dataset.write_parquet

    def counting(self, path, *a, **kw):
        writes.append(path)
        return real(self, path, *a, **kw)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", counting)
    ckpt = _zorder_checkpoint(str(sf))
    assert _zorder_checkpoint(str(sf)) == ckpt and len(writes) == 1
    os.utime(sf / "orders.parquet", (1_700_000_000, 1_700_000_000))
    assert _zorder_checkpoint(str(sf)) == ckpt and len(writes) == 2
    assert any(p.startswith("zb=") for p in os.listdir(ckpt))
