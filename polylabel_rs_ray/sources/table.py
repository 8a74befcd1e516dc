"""Table source abstraction: Lance first (per BASELINE.json ``input_hint``),
Parquet fallback.

``pylance`` is an optional dependency, so ``table_path`` resolves the
format at call time: a ``<name>.lance`` dataset directory when the library
exists, else ``<name>.parquet`` — same logical schema, same downstream
pipeline.  ``read_table`` reads what it resolves, and the registry's
checkpoints stamp the same path.  Column pruning is always pushed to the
read."""

from __future__ import annotations

import os


def have_lance() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def table_path(base_dir: str, name: str) -> str:
    """``{base_dir}/{name}.lance`` when it exists and Lance is installed,
    else ``{base_dir}/{name}.parquet``; raises FileNotFoundError when the
    table is missing."""
    lance_path = os.path.join(base_dir, f"{name}.lance")
    if os.path.exists(lance_path) and have_lance():
        return lance_path
    parquet_path = os.path.join(base_dir, f"{name}.parquet")
    if os.path.exists(parquet_path):
        return parquet_path
    raise FileNotFoundError(f"no {name}.(lance|parquet) under {base_dir}")


def read_table(base_dir: str, name: str, columns: list[str] | None = None):
    """Ray Dataset over ``table_path(base_dir, name)``, with the column
    pruning pushed into the read (only the requested columns leave
    storage)."""
    import ray

    path = table_path(base_dir, name)
    read = ray.data.read_lance if path.endswith(".lance") else ray.data.read_parquet
    return read(path, columns=columns)
