"""The compiled kernel is built on first import, once, and atomically.

Each test copies ``geom/`` (kernel.py, polylabel.c) into a fresh directory,
so it starts from an empty build directory without touching the package's.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import polylabel_rs_ray.geom.kernel as K

GEOM = Path(K.__file__).resolve().parent

PROBE = """
import numpy as np
from geom.kernel import polylabel_one
ell = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (0.0, 4.0)])
print(polylabel_one([ell], 0.1)[:2])
"""


def _copy_geom(root: Path, c_source: bytes | None = None) -> Path:
    pkg = root / "geom"
    pkg.mkdir()
    for name in ("__init__.py", "kernel.py", "polylabel.c"):
        shutil.copyfile(GEOM / name, pkg / name)
    if c_source is not None:
        (pkg / "polylabel.c").write_bytes(c_source)
    return pkg


def _start(cwd: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", PROBE], cwd=cwd, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_concurrent_first_imports_leave_one_library(tmp_path):
    pkg = _copy_geom(tmp_path)
    procs = [_start(tmp_path), _start(tmp_path)]
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err
        assert out.strip() == "(0.5625, 0.5625)"
    built = sorted(f.name for f in (pkg / "_build").iterdir())
    assert len(built) == 1 and built[0].endswith(".so"), built


def test_compile_error_fails_the_import_with_gcc_output(tmp_path):
    pkg = _copy_geom(tmp_path, c_source=b"int pl_label(void) { return missing; }\n")
    p = _start(tmp_path)
    _, err = p.communicate(timeout=300)
    assert p.returncode != 0
    assert "ImportError" in err and "missing" in err  # gcc's own message
    assert list((pkg / "_build").iterdir()) == []  # no partial library
