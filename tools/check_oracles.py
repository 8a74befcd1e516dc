"""Simulate the driver's correctness gate locally.

Runs every ``queries()`` entry at the given sf dir, runs the matching
``oracle_sql()`` in DuckDB over the same parquet tables, and compares
row count + schema + an order-insensitive value hash (columns sorted by
name, rows sorted, values hashed).  Usage:

    python tools/check_oracles.py [sf_dir] [query ...]
    python tools/check_oracles.py --json OUT.json [sf_dir]   # full-sweep artifact

The --json artifact mirrors the driver's CORRECTNESS_r{N}.json row shape
(rows_match / schema_match / hash_match / engine_rows / oracle_rows / err,
plus mode: "oracle" | "rows-only") so a committed full-registry sweep is
directly comparable with the driver's sampled gate.  Each row also keeps
the value hashes themselves (ray_hash / oracle_hash; a rows-only query
gets a ray_hash when its columns sort), so two commits' sweeps can be
compared row by row.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    df = res.to_pandas()  # ray Dataset
    if df.shape[1] == 0 and df.shape[0] == 0:
        # Ray quirk (pinned in tests): to_pandas() on an all-empty-blocks
        # Dataset drops the column set even though ds.schema() is right —
        # rebuild the empty frame from the schema
        schema = res.schema()
        if schema is not None:
            df = df.reindex(columns=list(schema.names))
    return df


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    h = hashlib.sha256()
    for col in df.columns:
        s = df[col]
        h.update(col.encode())
        for v in s:
            h.update(repr(v).encode())
    return h.hexdigest()[:16]


def main(sf_dir: str, only: list[str] | None = None,
         json_out: str | None = None) -> int:
    import ray

    ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
             ignore_reinit_error=True)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    # guard rails: a pathological oracle plan must FAIL its own row, not
    # fill the disk with spill and take the Ray workers down with it
    # (happened once: a planner cross-join spilled past the volume)
    # sized to let the heavyweight graph oracles through (triangle/k-core
    # peel at sf1 peak ~50-60GB) while still stopping a runaway plan (the
    # planner cross-join that once spilled toward 600GB)
    con.execute("SET memory_limit='100GB'")
    con.execute("SET max_temp_directory_size='64GB'")
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    report: dict[str, dict] = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        row = {"mode": "oracle" if name in oracles else "rows-only",
               "rows_match": None, "schema_match": None, "hash_match": None,
               "engine_rows": None, "oracle_rows": None, "err": None,
               "secs": None, "ray_hash": None, "oracle_hash": None}
        report[name] = row
        if name not in oracles:
            # rows-only check (driver's weaker path): no canonicalization —
            # nested struct/list columns need not be sortable/hashable
            try:
                raw = to_pandas(fn(sf_dir))
            except Exception as exc:  # noqa: BLE001
                print(f"FAIL {name}: ray query raised {exc!r}")
                row["err"] = repr(exc)
                failures += 1
                continue
            row["engine_rows"] = len(raw)
            row["secs"] = round(time.time() - t0, 2)
            try:
                row["ray_hash"] = value_hash(canonical(raw))
            except (TypeError, ValueError):  # array/struct cells do not sort
                pass
            print(f"ok?  {name}: rows={len(raw)} (no oracle, rows-only) [{row['secs']}s]")
            continue
        try:
            got = canonical(to_pandas(fn(sf_dir)))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: ray query raised {exc!r}")
            row["err"] = repr(exc)
            failures += 1
            continue
        dt = time.time() - t0
        try:
            exp = canonical(con.execute(oracles[name]).fetchdf())
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: oracle SQL raised {exc!r}")
            row["err"] = f"oracle: {exc!r}"
            failures += 1
            continue
        row.update(engine_rows=len(got), oracle_rows=len(exp), secs=round(dt, 2),
                   rows_match=len(got) == len(exp),
                   schema_match=list(got.columns) == list(exp.columns),
                   ray_hash=value_hash(got), oracle_hash=value_hash(exp))
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if list(got.columns) != list(exp.columns):
            problems.append(f"cols {list(got.columns)} != {list(exp.columns)}")
            row["hash_match"] = False
        else:
            row["hash_match"] = (len(got) == len(exp)
                                 and row["ray_hash"] == row["oracle_hash"])
            if not row["hash_match"] and len(got) == len(exp):
                problems.append("value hash mismatch")
                for col in got.columns:
                    if not got[col].equals(exp[col]):
                        diffs = (got[col] != exp[col]).sum()
                        problems.append(f"  col {col}: {diffs} differing values; "
                                        f"got[:3]={got[col].head(3).tolist()} exp[:3]={exp[col].head(3).tolist()}")
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            failures += 1
        else:
            print(f"PASS {name}: rows={len(got)} [{dt:.1f}s]")
    ray.shutdown()
    if json_out:
        n_oracle = sum(1 for r in report.values() if r["mode"] == "oracle")
        summary = {
            "sf_dir": sf_dir,
            "n_queries": len(report),
            "n_oracle": n_oracle,
            "n_rows_only": len(report) - n_oracle,
            "n_fail": failures,
            "results": report,
        }
        with open(json_out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
        print(f"wrote {json_out}: {len(report)} queries, {failures} failures")
    return failures


if __name__ == "__main__":
    argv = sys.argv[1:]
    json_out = None
    if argv and argv[0] == "--json":
        json_out = argv[1]
        argv = argv[2:]
    sf = argv[0] if argv else "/root/testdata/sf0.01"
    raise SystemExit(main(sf, only=argv[1:] or None, json_out=json_out))
