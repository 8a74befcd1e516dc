"""Round-3 extension operators, batch 89: referential-integrity audit
and revenue concentration.

``fk_orphan_audit`` — the warehouse constraint check: every foreign
key in the star schema audited in one operator — child rows whose key
has no parent.  Each parent ships once as a sorted keys-only array
(8 bytes/key — the broadcast-set trade; for a parent too large even
keys-only, the ext61 co-partitioned ``_anti_join`` is the drop-in
scale path).  Output: one row per relationship with child row count
and orphan count.

``pareto_point`` — the 80/20 concentration statistic: the smallest k
such that the top-k parts by revenue cover at least 80% of total
revenue (exact integer cross-multiply ``cum * 5 >= total * 4``), plus
the exact coverage numerator at that k.  Per-part revenue flows
through the int-key hash exchange; the ranked fold runs over the
bounded part dimension.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PARETO_NUM, PARETO_DEN = 4, 5  # coverage threshold 4/5


# (child_table, child_key, parent_table, parent_key)
FK_RELATIONS = (
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("nation", "n_regionkey", "region", "r_regionkey"),
)


def q_fk_orphan_audit(sf_dir: str):
    import pyarrow.parquet as pq

    from .agg import grouped_aggregate

    import ray
    import pandas as pd

    rows = []
    for child, ckey, parent, pkey in FK_RELATIONS:
        parent_keys = np.sort(
            pq.read_table(f"{sf_dir}/{parent}.parquet", columns=[pkey])
            .column(pkey).to_numpy().astype(np.int64))

        def stage(batch: pa.Table, ckey=ckey, pk=parent_keys) -> pa.Table:
            k = batch.column(ckey).to_numpy().astype(np.int64)
            if len(pk):
                pos = np.clip(np.searchsorted(pk, k), 0, len(pk) - 1)
                orphan = pk[pos] != k
            else:
                orphan = np.ones(len(k), dtype=bool)
            return pa.table({
                "g": pa.array([0], type=pa.int64()),
                "n_rows": pa.array([len(k)], type=pa.int64()),
                "n_orphans": pa.array([int(orphan.sum())], type=pa.int64()),
            })

        agg = grouped_aggregate(
            ray.data.read_parquet(f"{sf_dir}/{child}.parquet",
                                  columns=[ckey])
            .map_batches(stage, batch_format="pyarrow",
                         zero_copy_batch=True),
            ["g"],
            [("sum", "n_rows", "n_rows"), ("sum", "n_orphans", "n_orphans")],
        ).to_pandas()
        rows.append({
            "fk": f"{child}.{ckey} -> {parent}.{pkey}",
            "n_rows": int(agg.iloc[0]["n_rows"]),
            "n_orphans": int(agg.iloc[0]["n_orphans"]),
        })
    out = pd.DataFrame(rows).sort_values("fk").reset_index(drop=True)
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_orphans"] = out["n_orphans"].astype("int64")
    return out


def _sql_fk_orphan_audit() -> str:
    parts = []
    for child, ckey, parent, pkey in FK_RELATIONS:
        parts.append(f"""
        SELECT '{child}.{ckey} -> {parent}.{pkey}' AS fk,
               CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN p.{pkey} IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_orphans
        FROM {child} c LEFT JOIN {parent} p ON c.{ckey} = p.{pkey}""")
    return " UNION ALL ".join(parts)


def q_pareto_point(sf_dir: str):
    from .agg import grouped_aggregate

    import ray

    def rev(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64()).to_numpy()
        disc = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)),
            pa.int64()).to_numpy()
        return pa.table({
            "p_partkey": pc.cast(batch.column("l_partkey"), pa.int64()),
            "revenue_micro": pa.array(cents * (100 - disc), type=pa.int64()),
        })

    per_part = grouped_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice", "l_discount"],
        ).map_batches(rev, batch_format="pyarrow", zero_copy_batch=True),
        ["p_partkey"],
        [("sum", "revenue_micro", "revenue_micro")],
    ).to_pandas()  # bounded: part dimension

    r = per_part.sort_values(
        ["revenue_micro", "p_partkey"], ascending=[False, True]
    )["revenue_micro"].to_numpy().astype(np.int64)
    total = int(r.sum())
    cum = np.cumsum(r)
    k = int(np.argmax(cum * PARETO_DEN >= total * PARETO_NUM)) + 1
    import pandas as pd

    return pd.DataFrame({
        "n_parts": [np.int64(len(r))],
        "k_top": [np.int64(k)],
        "covered_micro": [np.int64(int(cum[k - 1]))],
        "total_micro": [np.int64(total)],
    })


SQL_PARETO_POINT = f"""
WITH pr AS (
  SELECT l_partkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
              AS BIGINT) AS rev
  FROM lineitem GROUP BY l_partkey
),
ranked AS (
  SELECT rev,
         SUM(rev) OVER (ORDER BY rev DESC, l_partkey ASC
                        ROWS UNBOUNDED PRECEDING) AS cum,
         ROW_NUMBER() OVER (ORDER BY rev DESC, l_partkey ASC) AS rk
  FROM pr
),
tot AS (SELECT CAST(SUM(rev) AS BIGINT) AS total FROM pr)
SELECT CAST((SELECT COUNT(*) FROM pr) AS BIGINT) AS n_parts,
       CAST(MIN(rk) AS BIGINT) AS k_top,
       CAST(MIN(cum) AS BIGINT) AS covered_micro,
       CAST((SELECT total FROM tot) AS BIGINT) AS total_micro
FROM ranked, tot
WHERE cum * {PARETO_DEN} >= total * {PARETO_NUM}
"""


def build_queries_ext89() -> dict:
    return {
        "fk_orphan_audit": q_fk_orphan_audit,
        "pareto_point": q_pareto_point,
    }


def build_oracles_ext89() -> dict:
    return {
        "fk_orphan_audit": _sql_fk_orphan_audit(),
        "pareto_point": SQL_PARETO_POINT,
    }
