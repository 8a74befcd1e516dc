"""Queries that used to hang on a 1-CPU Ray finish there and still equal
their DuckDB oracles: every map stage runs as a stateless task, so none
sits in an actor pool, and the keyed exchange turns off Ray Data's
per-operator CPU reservation on its output, so a union that starts with
an exchange does not stall.

The queries run in a subprocess with its own ``num_cpus=1`` session (the
tier-1 session has 4 CPUs, where neither hang shows).
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
QUERIES = ("zone_join", "knn_tiles", "bm25_top_terms")
# each unions a hash_exchange output, first, with a branch that reads parquet
UNION_QUERIES = ("cohort_retention", "large_volume_customers_q18",
                 "order_reconciliation", "name_key_consistency_audit")
TIMEOUT_S = 300

SCRIPT = """
import json, sys
import duckdb, ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
import __ray_entry__ as E
from tools.check_oracles import TABLES, canonical, to_pandas, value_hash

sf = E.SF0001
con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
qs, osql = E.queries(), E.oracle_sql()
out = {}
for name in sys.argv[1:]:
    got = canonical(to_pandas(qs[name](sf)))
    exp = canonical(con.execute(osql[name]).fetchdf())
    out[name] = {
        "rows": [len(got), len(exp)],
        "cols": list(got.columns) == list(exp.columns),
        "hash": [value_hash(got), value_hash(exp)],
    }
ray.shutdown()
print("RESULT " + json.dumps(out))
"""


def _check_on_one_cpu(queries):
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, *queries], cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"queries still running after {TIMEOUT_S} s on 1 CPU")
    assert proc.returncode == 0, stderr[-4000:]
    line = next(x for x in stdout.splitlines() if x.startswith("RESULT "))
    res = json.loads(line[len("RESULT "):])
    assert set(res) == set(queries)
    for name, r in res.items():
        assert r["rows"][0] == r["rows"][1] > 0, (name, r)
        assert r["cols"], name
        assert r["hash"][0] == r["hash"][1], (name, r)


def test_former_actor_queries_finish_on_one_cpu():
    _check_on_one_cpu(QUERIES)


def test_exchange_unions_finish_on_one_cpu():
    _check_on_one_cpu(UNION_QUERIES)
