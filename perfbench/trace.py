"""Span recording for the traced benchmark run.

A span is ``(name, start, end, span_id, parent_id, batch_id, pid, count)``.
Spans are kept in memory per process and appended, one JSON object a line,
to ``<trace_dir>/spans-<pid>.jsonl`` whenever a top-level span ends, so a
Ray worker's spans reach the driver without an actor.  A span opened inside
another on the same thread is its child and shares its batch id.

Instrumentation never edits the engine.  ``tracing()`` swaps module
attributes in the driver for ``Traced`` wrappers, which Ray pickles into the
tasks that call them; during each call the label wrapper swaps the two
functions ``label_batch`` calls (``rings_to_numpy``, ``polylabel_batch``)
inside the worker that runs it.  Stage callables the benchmark builds itself are
wrapped with ``Spanned``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import threading
import time

from polylabel_rs_ray.stages.tiles import TileRenderer


class Recorder:
    """Per-process span buffer, flushed to one file per process."""

    def __init__(self, trace_dir: str):
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.buf: list[dict] = []
        self.lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        sid = next(self.ids)
        parent = stack[-1] if stack else None
        rec = {
            "name": name,
            "span_id": sid,
            "parent_id": parent["span_id"] if parent else None,
            "batch_id": parent["batch_id"] if parent else f"{os.getpid()}-{sid}",
            "pid": os.getpid(),
            "count": 0,
        }
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec.setdefault("end", time.perf_counter())
            stack.pop()
            with self.lock:
                self.buf.append(rec)
                if not stack:
                    with open(self.path, "a") as f:
                        f.writelines(json.dumps(r) + "\n" for r in self.buf)
                    self.buf.clear()


_RECORDERS: dict[str, Recorder] = {}
_RECORDERS_LOCK = threading.Lock()


def recorder(trace_dir: str) -> Recorder:
    with _RECORDERS_LOCK:
        if trace_dir not in _RECORDERS:
            _RECORDERS[trace_dir] = Recorder(trace_dir)
        return _RECORDERS[trace_dir]


class Spanned:
    """``fn`` with a span around each call; ``count(*args)`` is stored on the
    span as the call's work count.  The span ends when ``fn`` returns, so
    the count's own cost is not timed as ``fn``."""

    def __init__(self, name: str, fn, trace_dir: str, count=None):
        self.name = name
        self.fn = fn
        self.trace_dir = trace_dir
        self.count = count
        self.__name__ = name

    def __call__(self, *args, **kwargs):
        with recorder(self.trace_dir).span(self.name) as rec:
            out = self.fn(*args, **kwargs)
            rec["end"] = time.perf_counter()
            if self.count is not None:
                rec["count"] = self.count(*args, **kwargs)
        return out


def spanned(name: str, fn, trace_dir: str | None, count=None):
    """``fn`` itself when not tracing, else a ``Spanned`` wrapper."""
    return fn if trace_dir is None else Spanned(name, fn, trace_dir, count)


class Traced(Spanned):
    """``Spanned`` around ``module.attr`` that pickles by name, so a worker
    calls its own unpatched copy of the attribute."""

    def __init__(self, name: str, module: str, attr: str, trace_dir: str, count=None):
        super().__init__(name, getattr(importlib.import_module(module), attr),
                         trace_dir, count)
        self.ref = (module, attr)

    def __getstate__(self):
        return {**self.__dict__, "fn": None}

    def __call__(self, *args, **kwargs):
        if self.fn is None:
            self.fn = getattr(importlib.import_module(self.ref[0]), self.ref[1])
        return super().__call__(*args, **kwargs)


def _vertices(polys, tolerances) -> int:
    return sum(len(ring) for rings in polys for ring in rings)


LABEL = "polylabel_rs_ray.stages.label"


class TracedLabel(Traced):
    """The label stage's wrapper.  For the duration of each call it also
    wraps the decode and kernel functions ``label_batch`` calls, so they
    record child spans."""

    def __call__(self, *args, **kwargs):
        label = importlib.import_module(LABEL)
        decode, kernel = label.rings_to_numpy, label.polylabel_batch
        label.rings_to_numpy = Spanned("stages.label.decode", decode, self.trace_dir)
        label.polylabel_batch = Spanned("geom.kernel", kernel, self.trace_dir,
                                        count=_vertices)
        try:
            return super().__call__(*args, **kwargs)
        finally:
            label.rings_to_numpy, label.polylabel_batch = decode, kernel


class TracedRenderer(TileRenderer):
    """``TileRenderer`` recording one span per rendered tile group.  The
    trace directory is taken from the class when the driver builds the
    renderer and travels with the pickled instance."""

    TRACE_DIR = ""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace_dir = type(self).TRACE_DIR

    def __call__(self, group):
        with recorder(self.trace_dir).span("stages.tiles.render") as rec:
            rec["count"] = group.num_rows
            return super().__call__(group)


# (span name, module, attribute) swapped while tracing
PATCHES = [
    ("sources.docs.synth", "polylabel_rs_ray.sources.docs", "attach_interleaved"),
    ("stages.cells.encode", "polylabel_rs_ray.stages.cells", "append_cell_columns"),
    ("state.manifest.write", "polylabel_rs_ray.state.manifest", "write_partition"),
]


@contextlib.contextmanager
def tracing(trace_dir: str):
    """Swap the engine's stage entry points for span-recording wrappers in
    the driver for the duration of the block; restore them after."""
    tiles = importlib.import_module("polylabel_rs_ray.stages.tiles")
    label = importlib.import_module(LABEL)
    saved = [(tiles, "TileRenderer", tiles.TileRenderer),
             (label, "label_batch", label.label_batch)]
    saved += [(importlib.import_module(m), a, getattr(importlib.import_module(m), a))
              for _, m, a in PATCHES]
    try:
        for name, module, attr in PATCHES:
            setattr(importlib.import_module(module), attr,
                    Traced(name, module, attr, trace_dir))
        label.label_batch = TracedLabel("stages.label", LABEL, "label_batch", trace_dir)
        TracedRenderer.TRACE_DIR = trace_dir
        tiles.TileRenderer = TracedRenderer
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def read_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f)
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span name -> summed self time: each span's duration minus the time
    its direct children cover."""
    covered: dict[tuple, float] = {}
    for s in spans:
        if s["parent_id"] is not None:
            key = (s["pid"], s["parent_id"])
            covered[key] = covered.get(key, 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get((s["pid"], s["span_id"]), 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
