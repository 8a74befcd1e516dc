"""Import rules for the engine (``geom/``, ``stages/``, ``sources/``,
``state/``, ``run.py``, ``api.py``, ``geojson_cli.py``, ``config.py``),
checked on the source with ``ast``: the engine never imports the query
registry under ``pipelines/``, and it has no unused import."""

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


@pytest.mark.parametrize("rel", FILES)
def test_engine_has_no_unused_import(rel):
    """Every name an import binds is read somewhere in its module, or is
    listed in ``__all__``.  Exempt: ``__init__.py`` re-exports and an
    import marked ``# noqa: F401`` (an availability probe)."""
    if os.path.basename(rel) == "__init__.py":
        return
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
    unused = sorted(f"{name} (line {line})" for name, line in bound.items()
                    if name not in used)
    assert unused == [], f"{rel}: unused imports {unused}"
