"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces each traced function, under the module
attribute through which the pipeline calls it, with a wrapper that records a
span, and puts the originals back on exit. Spans stay in memory as
`Span` records; `write` dumps them as JSON at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from nestedamc import circuit, programs, sat, treedecomp


def _smooth_counts(result, args):
    return {"nodes_added": result.node_count - args[0].node_count}


def _build_counts(result, args):
    return {"vars": len(result.cnf.variables), "clauses": len(result.cnf.clauses)}


# (owner, attribute, span name, counts taken from (result, args))
TARGETS = (
    (programs, "parse_program", "programs.parse", None),
    (programs, "build_instance", "programs.build", _build_counts),
    (programs, "defined_vars", "definability", None),
    (treedecomp, "primal_graph", "cnf.primal_graph", None),
    (treedecomp, "find_separator", "treedecomp.separator", None),
    (treedecomp, "decompose", "treedecomp.decompose", None),
    (treedecomp, "order_from_td", "treedecomp.order", None),
    (programs, "compile_cnf", "compiler", None),
    (programs, "smooth", "circuit.smooth", _smooth_counts),
    (circuit, "verify_circuit", "circuit.verify", None),
    (circuit, "evaluate_nested", "circuit.evaluate", None),
    (sat.SatSolver, "solve", "sat.solve", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    instance: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; `span` opens one directly, the installed wrappers
    open one per call of a traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = -1

    @contextmanager
    def span(self, name: str, instance: int):
        self.instance = instance
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.instance))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx].counts = counts(result, args)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counts in TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counts))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
