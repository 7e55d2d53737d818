"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the ``affinecaps`` layers from the
outside: library files are not edited. A wrapper is installed in every
loaded ``affinecaps`` module whose namespace binds the original function,
because callers look names up in their own module (``search`` imports
``cone_trivial`` by name, so the wrapper must sit on
``affinecaps.search.cone_trivial``). The benchmark calls layers through
module attributes, so its own calls pass through the wrappers too.

Spans live in memory: name, start, end, parent index and a few attributes
observed from the arguments and the result. A span's self time is its
duration minus the durations of its direct children, so the self times of
one root span's tree add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


def _cone(args, result):
    return {"cols": args[0].n_cols, "trivial": result.trivial}


def _matrix(args, result):
    return {"cols": args[0].n_cols, "closed": result.reduced}


def _digit(args, result):
    return {"closed": result.reduced}


def _verify_cap(args, result):
    # A full scan walks every pair of points; an early exit walks fewer.
    n = len(args[0])
    p = int(args[0].p) if len(args) < 2 or args[1] is None else int(args[1])
    return {"probes": n * (n - 1) // 2 * (p - 2) if result.ok else 0}


def _points(args, result):
    return {"points": len(result)}


# (span name, module, function, observer). Several functions may share a
# span name; the verify_trace and points_io spans each cover two.
TARGETS = (
    ("zp.normalize_digit_set", "affinecaps.zp", "normalize_digit_set", None),
    ("progressions.enumerate_progressions", "affinecaps.progressions",
     "enumerate_progressions", None),
    ("progressions.build_constraint_system", "affinecaps.progressions",
     "build_constraint_system", None),
    ("reducibility.digit_reduce", "affinecaps.reducibility", "digit_reduce", _digit),
    ("reducibility.matrix_reduce", "affinecaps.reducibility", "matrix_reduce", _matrix),
    ("reducibility.rref", "affinecaps.reducibility", "rref", None),
    ("reducibility.verify_trace", "affinecaps.reducibility", "verify_digit_trace", None),
    ("reducibility.verify_trace", "affinecaps.reducibility", "verify_matrix_trace", None),
    ("cone.cone_trivial", "affinecaps.cone", "cone_trivial", _cone),
    ("cone.verify_certificate", "affinecaps.cone", "verify_certificate", None),
    ("search.max_admissible_size", "affinecaps.search", "max_admissible_size", None),
    ("search.check_pair", "affinecaps.search", "check_pair", None),
    ("search.minimize_fixed_digits", "affinecaps.search", "minimize_fixed_digits", None),
    ("search.store_certificate", "affinecaps.search", "store_certificate", None),
    ("capset.build_cap", "affinecaps.capset", "build_cap", _points),
    ("capset.verify_cap", "affinecaps.capset", "verify_cap", _verify_cap),
    ("capset.points_io", "affinecaps.capset", "write_points", None),
    ("capset.points_io", "affinecaps.capset", "read_points", None),
    ("equivalence.classify", "affinecaps.equivalence", "classify", None),
    ("equivalence.fingerprint", "affinecaps.equivalence", "fingerprint", None),
    ("equivalence.affine_equivalent", "affinecaps.equivalence", "affine_equivalent", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))
ROOT = "bench"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans around the layer functions while the context is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    def _wrap(self, name, func, observe):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = self._close(index)
            if observe is not None:
                span.attrs = observe(args, result)
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for name, module, attr, observe in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrappers[id(original)] = self._wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("affinecaps"):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def root(self):
        """The span that covers one traced pass."""
        index = self._open(ROOT)
        try:
            yield self.spans[index]
        finally:
            self._close(index)


def summarize(spans: list[Span]) -> dict:
    """Per-name call counts, self times and observed totals for one pass."""
    out: dict = {name: {"calls": 0, "self_s": 0.0} for name in (ROOT,) + SPAN_NAMES}
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        for key, value in span.attrs.items():
            entry[key] = entry.get(key, 0) + value
        if span.name == "capset.verify_cap" and span.attrs.get("probes"):
            entry["scan_s"] = entry.get("scan_s", 0.0) + span.self_s
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, in the order the spans were opened."""
    with open(path, "w") as fh:
        for index, span in enumerate(spans):
            fh.write(json.dumps({
                "id": index, "parent": span.parent, "name": span.name,
                "start": span.start, "end": span.end, "self_s": span.self_s,
                "attrs": span.attrs,
            }) + "\n")
