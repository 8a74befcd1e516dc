"""Import rules for the engine (``geom/``, ``stages/``, ``sources/``,
``state/``, ``run.py``, ``api.py``, ``geojson_cli.py``, ``config.py``),
checked on the source with ``ast``: the engine never imports the query
registry under ``pipelines/``, every module ``run.code_digest()`` hashes
is code the chain runs, the registry labels documents only through
``run``, no module of the package reads the environment, and no module
of the package or of its tests has an unused import."""

import ast
import os

import pytest

PKG = "polylabel_rs_ray"
ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), PKG)
ENGINE = ("geom", "stages", "sources", "state", "run.py", "api.py",
          "geojson_cli.py", "config.py")


def _engine_files():
    for top in ENGINE:
        path = os.path.join(ROOT, top)
        if top.endswith(".py"):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(set(dirnames) - {"_build", "__pycache__"})
            yield from (os.path.join(dirpath, f) for f in sorted(filenames)
                        if f.endswith(".py"))


FILES = sorted(os.path.relpath(p, ROOT) for p in _engine_files())
REGISTRY_FILES = sorted(
    os.path.relpath(os.path.join(d, f), ROOT)
    for d, dirnames, filenames in os.walk(os.path.join(ROOT, "pipelines"))
    if "__pycache__" not in d for f in filenames if f.endswith(".py"))
# the chain's entry points: the CLI runner, the API, the GeoJSON CLI and
# the public stages perfbench drives
CHAIN_ROOTS = ("run.py", "api.py", "geojson_cli.py", "stages/label.py", "stages/tiles.py")


def _source(rel):
    with open(os.path.join(ROOT, rel)) as f:
        return f.read()


def _imported_modules(rel, tree):
    """Absolute names of the modules ``rel`` imports from."""
    package = [PKG] + os.path.dirname(rel).split(os.sep)
    package = [p for p in package if p]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            yield mod
            yield from (f"{mod}.{a.name}" for a in node.names)


@pytest.mark.parametrize("rel", FILES)
def test_engine_does_not_import_pipelines(rel):
    bad = [m for m in _imported_modules(rel, ast.parse(_source(rel), rel))
           if m == f"{PKG}.pipelines" or m.startswith(f"{PKG}.pipelines.")]
    assert bad == [], f"{rel} imports the registry: {bad}"


def _module_file(name):
    """``rel`` path of the package module ``name``, or None."""
    if not name.startswith(f"{PKG}."):
        return None
    rel = os.path.join(*name.split(".")[1:])
    for cand in (rel + ".py", os.path.join(rel, "__init__.py")):
        if os.path.isfile(os.path.join(ROOT, cand)):
            return cand
    return None


def test_engine_digest_covers_only_chain_code():
    """Every ``.py`` under ``run.ENGINE_DIRS`` (the dirs ``code_digest()``
    hashes, so an edit there relabels every checkpoint) is reachable by
    imports, function-level ones included, from the chain's entry points."""
    from polylabel_rs_ray import run

    seen, todo = set(), list(CHAIN_ROOTS)
    while todo:
        rel = todo.pop()
        if rel in seen:
            continue
        seen.add(rel)
        parts = os.path.dirname(rel).split(os.sep)
        for i in range(1, len(parts) + 1):  # importing a module runs its packages
            if parts[0]:
                todo.append(os.path.join(*parts[:i], "__init__.py"))
        for mod in _imported_modules(rel, ast.parse(_source(rel), rel)):
            f = _module_file(mod)
            if f is not None:
                todo.append(f)
    digested = [f for f in FILES if f.split(os.sep)[0] in run.ENGINE_DIRS]
    unreached = [f for f in digested if f not in seen]
    assert unreached == [], f"hashed by code_digest() but not run by the chain: {unreached}"


LABEL_CHAIN = ("label_points", "labeled_rows", "range_docs")


@pytest.mark.parametrize("rel", REGISTRY_FILES)
def test_registry_labels_only_through_run(rel):
    """The registry reads the documents' labels from a ``run`` output
    (``queries.labeled_docs``); only ``flagship.py``, the flagship entry,
    builds the label chain itself, so no second label route comes back."""
    if rel == os.path.join("pipelines", "flagship.py"):
        return
    tree = ast.parse(_source(rel), rel)
    bad = sorted({m for m in _imported_modules(rel, tree)
                  if m.rsplit(".", 1)[-1] in LABEL_CHAIN}
                 | {n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and n.attr in LABEL_CHAIN})
    assert bad == [], f"{rel} builds a label chain of its own: {bad}"


def test_package_reads_no_environment():
    """No module of the package reads ``os.environ`` or ``os.getenv``:
    what it computes depends on its arguments and its inputs only."""
    bad = []
    for rel in sorted(os.path.relpath(os.path.join(d, f), ROOT)
                      for d, _, fs in os.walk(ROOT) for f in fs if f.endswith(".py")):
        for node in ast.walk(ast.parse(_source(rel), rel)):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                bad.append(f"{rel}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                bad += [f"{rel}:{node.lineno}" for a in node.names
                        if a.name in ("environ", "getenv")]
    assert bad == [], f"reads the environment: {bad}"


def _unused_imports(rel):
    """Names an import binds in ``rel`` that its module never reads and
    does not list in ``__all__``.  Exempt: ``__init__.py`` re-exports and
    an import marked ``# noqa: F401`` (an availability probe)."""
    if os.path.basename(rel) == "__init__.py":
        return []
    src = _source(rel)
    tree = ast.parse(src, rel)
    lines = src.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "noqa: F401" in lines[node.lineno - 1]):
            continue
        for a in node.names:
            bound[a.asname or a.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("rel", FILES)
def test_engine_has_no_unused_import(rel):
    """Every name an import binds is read somewhere in its module."""
    unused = _unused_imports(rel)
    assert unused == [], f"{rel}: unused imports {unused}"


@pytest.mark.parametrize("rel", REGISTRY_FILES)
def test_registry_has_no_unused_import(rel):
    """The same rule for every module of the query registry."""
    unused = _unused_imports(rel)
    assert unused == [], f"{rel}: unused imports {unused}"


def test_tests_have_no_unused_import():
    """The same rule for every test module, all offenders in one failure."""
    tests = os.path.join(os.path.dirname(ROOT), "tests")
    unused = {f: u for f in sorted(os.listdir(tests)) if f.endswith(".py")
              for u in [_unused_imports(os.path.join("..", "tests", f))] if u}
    assert unused == {}, f"unused imports in tests/: {unused}"
