"""Driver-contract guards: the queries()/oracle_sql() registries stay
consistent with each other, with COVERAGE.md, and with the driver's
import rules (no Ray session needed to BUILD the registries)."""

import inspect
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_registries_consistent():
    from polylabel_rs_ray.pipelines.queries import build_oracles, build_queries

    qs = build_queries()
    os_ = build_oracles()
    # every oracle belongs to a registered query
    assert set(os_) <= set(qs), sorted(set(os_) - set(qs))
    # every query callable takes sf_dir as its first parameter
    for name, fn in qs.items():
        params = list(inspect.signature(fn).parameters)
        assert params and params[0] == "sf_dir", name
    # oracles are non-empty SQL strings mentioning a registered table
    tables = ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents")
    for name, sql in os_.items():
        assert isinstance(sql, str) and sql.strip(), name
        assert any(t in sql for t in tables), name


def test_every_query_documented_in_coverage():
    from polylabel_rs_ray.pipelines.queries import build_queries

    qs = set(build_queries())
    text = (REPO / "COVERAGE.md").read_text()
    # a query is documented if its registry name appears anywhere
    missing = {n for n in qs if n not in text}
    assert not missing, sorted(missing)


def test_coverage_states_the_registry_size():
    from polylabel_rs_ray.pipelines.queries import build_oracles, build_queries

    text = (REPO / "COVERAGE.md").read_text()
    m = re.findall(r"^Registry: (\d+) queries, (\d+) DuckDB oracles, (\d+) rows-only\.$",
                   text, re.M)
    assert len(m) == 1, m
    qs, os_ = build_queries(), build_oracles()
    assert tuple(map(int, m[0])) == (len(qs), len(os_), len(set(qs) - set(os_)))


def test_bench_queries_are_registered():
    # bench.py and tools/bench_sf1.py read only environment variables on
    # import, so no Ray here
    import importlib.util

    import bench
    from polylabel_rs_ray.pipelines.queries import build_queries

    spec = importlib.util.spec_from_file_location(
        "bench_sf1", REPO / "tools" / "bench_sf1.py")
    bench_sf1 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_sf1)
    names = set(bench.BENCH_QUERIES) | set(bench_sf1.HEAVY)
    missing = names - set(build_queries())
    assert not missing, sorted(missing)


def test_registry_builds_without_ray():
    # the driver imports __ray_entry__ and calls queries()/oracle_sql()
    # BEFORE any pipeline runs; building the dicts must not import Ray
    # (a fresh interpreter: this pytest process has Ray loaded already)
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from polylabel_rs_ray.pipelines.queries import build_oracles, build_queries\n"
        "print(len(build_queries()), len(build_oracles()), 'ray' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True,
                         capture_output=True, text=True).stdout.split()
    n_q, n_o, ray_loaded = int(out[0]), int(out[1]), out[2]
    assert n_q >= 109 and n_o >= 97, (n_q, n_o)
    assert ray_loaded == "False"


def test_registry_rejects_a_name_registered_twice():
    import pytest

    from polylabel_rs_ray.pipelines.queries import _merge

    assert list(_merge([("a", {"x": 1}), ("b", {"y": 2})])) == ["x", "y"]
    with pytest.raises(ValueError, match="'x' is registered by both a and b"):
        _merge([("a", {"x": 1}), ("b", {"y": 2, "x": 3})])


def test_rows_only_set_is_the_documented_one():
    # every rows-only query is one whose semantics genuinely resist a SQL
    # oracle (iterative floats, binary payloads, engine-synthesized spans,
    # approximate sketches) — growing this set needs a reason
    from polylabel_rs_ray.pipelines.queries import build_oracles, build_queries

    rows_only = set(build_queries()) - set(build_oracles())
    allowed = {
        # approx_distinct_users / hll_type_overlap were promoted to full
        # register-replay oracles in r5 (md5 hash chain + integer-exact
        # estimator) — the remaining two are genuinely iterative
        "pagerank_parts",       # iterative float algorithm (repr-exact floats
                                # don't survive a SQL replay)
        "bpe_merges",           # iterative merge loop (rank k+1 depends on
                                # the applied merge k); pinned exactly vs a
                                # pure-Python reference BPE in
                                # tests/test_ext34_ops.py, and the corpus
                                # word-frequency pass is oracle-exact there
    }
    unexpected = rows_only - allowed
    assert not unexpected, sorted(unexpected)
    # the set can only shrink — a new rows-only query needs a reason here
    assert rows_only == allowed, sorted(allowed - rows_only)
