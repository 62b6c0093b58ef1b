"""Per-layer spans, timed from outside the package.

A traced solve patches a few public functions at the module binding
their caller looks them up through, and passes an oracle subclass that
times every query.  Spans nest on one stack, so each layer's self time
is its own duration minus the time its traced children took.  The
patches are undone after each solve, leaving untraced solves untouched.

A hook whose module or attribute no longer exists is skipped and its
layer is reported missing, so code can be removed without editing the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from ldt.oracle import HiddenPointOracle

# (module the caller reads the name from, attribute, span name)
HOOKS = (
    ("ldt.solver", "build_sorted_sample", "inference.sort"),
    ("ldt.solver", "cell_from_sample", "inference.cell"),
    ("ldt.solver", "infer_set", "inference.infer"),
    ("ldt.batch", "cone_member", "lp.cone_member"),
    # the float programs that propose interior points for a cell's pool
    ("ldt.batch", "linprog", "lp.pool"),
    ("ldt.inference", "feasible", "lp.feasible"),
)


class Tracer:
    """Folds nested spans into per-name calls, total and self seconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}
        self.live = 0
        self.inferred = 0
        self.undetermined = 0
        self._stack: list[list] = []

    def open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def close(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def observe_inference(self, remaining, outcome) -> None:
        """Count live, inferred and undetermined rows of one infer_set call."""
        inferred = getattr(outcome, "inferred", None)
        undetermined = getattr(outcome, "undetermined", None)
        if inferred is None or undetermined is None:
            reason = "infer_set result has no inferred/undetermined"
            for metric in ("inference.yield", "inference.undetermined"):
                self.missing[metric] = reason
            return
        self.live += len(remaining)
        self.inferred += len(inferred)
        self.undetermined += len(undetermined)


def _wrap(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if name == "inference.infer":
            remaining = args[1] if len(args) > 1 else kwargs.get("remaining", ())
            tracer.observe_inference(remaining, result)
        return result

    return traced


@contextmanager
def hooks_installed(tracer: Tracer):
    """Patch every hook target for the duration of one solve."""
    saved = []
    try:
        for module_name, attr, name in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                tracer.missing[name] = f"{module_name}.{attr}: {exc}"
                continue
            setattr(module, attr, _wrap(original, name, tracer))
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TracedOracle(HiddenPointOracle):
    """The package oracle with a span around every query."""

    def __init__(self, secret, tracer: Tracer) -> None:
        super().__init__(secret)
        self._tracer = tracer

    def label_query(self, *args, **kwargs):
        self._tracer.open("oracle.label")
        try:
            return super().label_query(*args, **kwargs)
        finally:
            self._tracer.close()

    def comparison_query(self, *args, **kwargs):
        self._tracer.open("oracle.cmp")
        try:
            return super().comparison_query(*args, **kwargs)
        finally:
            self._tracer.close()
