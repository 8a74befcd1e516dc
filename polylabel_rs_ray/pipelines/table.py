"""Table source abstraction: Lance first (per BASELINE.json ``input_hint``),
Parquet fallback.

``pylance`` is an optional dependency, so ``table_path`` resolves the
format at call time: a ``<name>.lance`` dataset directory when the library
exists, else ``<name>.parquet`` — same logical schema, same downstream
pipeline.  ``read_table`` reads what it resolves, ``document_count`` reads
the documents table's ids from it, and the registry's checkpoints stamp
the same path.  Column pruning is always pushed to the read."""

from __future__ import annotations

import os

import numpy as np


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


def document_count(sf_dir: str) -> int:
    """``n``, the row count of the documents table of ``sf_dir``, whose
    ``doc_id`` column must hold exactly ``0 .. n-1`` (else ValueError
    naming the table).  A document is a pure function of its id, so
    these ids are all the engine takes from the table: its callers label
    ``range_docs([(0, n)])``."""
    path = table_path(sf_dir, "documents")
    if path.endswith(".lance"):
        import lance

        table = lance.dataset(path).to_table(columns=["doc_id"])
    else:
        import pyarrow.parquet as pq

        table = pq.read_table(path, columns=["doc_id"])
    ids = np.sort(table.column("doc_id").to_numpy())
    n = len(ids)
    if not np.array_equal(ids, np.arange(n)):
        raise ValueError(f"{path}: the doc ids are not exactly 0..{n - 1}")
    return n
