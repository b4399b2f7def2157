"""Spans around calls into telecap's public functions, installed from outside.

The tracer replaces module attributes that callers resolve at call time
(for example ``telecap.capacity.hermitian_eig``, which ``analyze`` looks up
in its own module) with a wrapper that records a span: name, parent span,
start, end, and the benchmark operation it belongs to.  Spans stay in memory
until the run ends.  Uninstalling puts the original functions back, so an
untraced phase pays nothing.
"""

from __future__ import annotations

import functools
import importlib
import time

# (defining module, function): every attribute bound to one of these
# functions anywhere in the package is wrapped, so internal callers that
# imported the name (``from .linalg import hermitian_eig``) are traced too.
TRACED = (
    ("capacity", "analyze"),
    ("capacity", "synthesize_u_a"),
    ("capacity", "synthesize_u_b"),
    ("capacity", "verify_condition"),
    ("capacity", "reduced_density"),
    ("linalg", "hermitian_eig"),
    ("linalg", "is_unitary"),
    ("linalg", "cluster_spectrum"),
    ("states", "apply_unitary"),
    ("states", "project_and_collapse"),
    ("states", "tensor"),
    ("teleport", "teleport_bell"),
    ("teleport", "teleport_circuit"),
    ("teleport", "bell_round"),
    ("teleport", "circuit_round"),
    ("corpus", "generate_planted"),
    ("corpus", "haar_unitary"),
    ("cli", "main"),
    ("cli", "load_state_file"),
    ("cli", "save_state_file"),
)

PACKAGE = "telecap"


class Span:
    __slots__ = ("name", "parent", "op", "start", "end")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``op`` tags each span with the
    benchmark operation running when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        if self._patched:
            return
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in sorted({m for m, _ in TRACED})
        ]
        wrappers = {}
        for module, fname in TRACED:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), fname)
            wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def nearest_ancestor(spans: list[Span], name: str) -> list[int]:
    """Index of each span's closest ancestor called ``name``, or -1."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            out[i] = p if spans[p].name == name else out[p]
    return out
