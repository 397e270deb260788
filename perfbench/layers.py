"""Layer wrappers for the traced run: spans recorded from outside the library.

The tracer rebinds the public functions of each covercount module, in every
covercount module namespace that holds them (gravity and hurwitz_series keep
their own ``hurwitz_connected``), and wraps the methods of the classes that
carry a layer's arithmetic.  Each call into a layer becomes a span; a span's
self time is its duration minus the time of the spans it caused, computed on
a span stack as calls return.  Spans stay in memory and are written out when
the traced process ends.

Every counter is computed from call arguments (or, for ``class_elements``,
from the items it yields); nothing reads a private covercount name, so a
refactor of the library's internals cannot break the benchmark.

Not wrapped, because each call costs about a microsecond and the wrapper
would cost as much as the work: the ``perm_*`` helpers and ``identity_perm``
in symmetric, and ``as_rational`` / ``format_rational`` in exact.  Their time
is charged to the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "monodromy",
    "symmetric",
    "exact",
    "algebra",
    "hurwitz_series",
    "gravity",
    "trees",
    "cli",
)

# Classes whose methods are a layer's work; the other classes are value
# records whose methods are cheap accessors.
CLASSES = {"exact": ("TruncatedSeries",), "algebra": ("ZPoly", "LaurentPolyX")}
DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__",
}
SKIP = {"identity_perm", "as_rational", "format_rational"}

COUNTERS = (
    "monodromy.calls",
    "monodromy.distinct_specs",
    "monodromy.walk_steps",
    "monodromy.max_n",
    "symmetric.elements",
    "exact.mul_calls",
    "exact.mul_coeff_ops",
    "exact.inverse_calls",
    "exact.solve_calls",
    "exact.solve_cells",
    "algebra.identify_calls",
    "hurwitz_series.fit_calls",
)
# Inclusive times of single entry points, by the metric they feed.
INCLUSIVE = {
    "monodromy.hurwitz_connected": "monodromy.cold_s",
    "algebra.LaurentPolyX.coefficient": "algebra.coefficient_s",
    "gravity.painleve_solve": "gravity.painleve_s",
}


class Tracer:
    """Span stack, span list and counters of one traced process."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []  # [layer, name, start, end, busy, parent]
        self.stack: list[list] = []  # [span id, time of child spans, start]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.inclusive = dict.fromkeys(INCLUSIVE.values(), 0.0)
        self.oracle_calls: dict[tuple, tuple] = {}  # spec key -> (args, kwargs)

    def enter(self, layer: str, name: str, span_id: int | None = None) -> int:
        now = time.perf_counter()
        if span_id is None:
            parent = self.stack[-1][0] if self.stack else -1
            span_id = len(self.spans)
            self.spans.append([layer, name, now, now, 0.0, parent])
        self.stack.append([span_id, 0.0, now])
        return span_id

    def leave(self) -> float:
        now = time.perf_counter()
        span_id, child, start = self.stack.pop()
        span = self.spans[span_id]
        dur = now - start
        span[3] = now
        span[4] += dur
        self.self_s[span[0]] += dur - child
        if self.stack:
            self.stack[-1][1] += dur
        return dur

    def count(self, qualname: str, args: tuple, kwargs: dict) -> None:
        hook = _HOOKS.get(qualname)
        if hook is not None:
            hook(self, args, kwargs)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _oracle_call(tr: Tracer, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    tr.counts["monodromy.calls"] += 1
    key = (spec.g, spec.n, tuple(mu.parts for mu in spec.mus))
    if key not in tr.oracle_calls:
        tr.oracle_calls[key] = (args, kwargs)
        tr.counts["monodromy.distinct_specs"] += 1
        tr.counts["monodromy.walk_steps"] += spec.c
        tr.counts["monodromy.max_n"] = max(tr.counts["monodromy.max_n"], spec.n)


def _series_product(tr: Tracer, args, kwargs):
    a, b = args
    if type(b) is type(a):
        n = min(a.order, b.order)
        tr.counts["exact.mul_calls"] += 1
        tr.counts["exact.mul_coeff_ops"] += (n + 1) * (n + 2) // 2


def _solve(tr: Tracer, args, kwargs):
    matrix = (args[0] if args else kwargs["system"]).matrix
    tr.counts["exact.solve_calls"] += 1
    tr.counts["exact.solve_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _bump(metric):
    def hook(tr: Tracer, args, kwargs):
        tr.counts[metric] += 1

    return hook


_HOOKS = {
    "monodromy.hurwitz_connected": _oracle_call,
    "exact.TruncatedSeries.__mul__": _series_product,
    "exact.TruncatedSeries.inverse": _bump("exact.inverse_calls"),
    "exact.solve_exact": _solve,
    "algebra.identify_in_a": _bump("algebra.identify_calls"),
    "hurwitz_series.fit_phi": _bump("hurwitz_series.fit_calls"),
}


def _wrap(tr: Tracer, layer: str, name: str, fn):
    qualname = f"{layer}.{name}"
    inclusive = INCLUSIVE.get(qualname)

    if inspect.isgeneratorfunction(fn):
        # Time the generator over its iteration: one span, entered on every
        # next() so that only the producer's work is charged to it.
        counted = qualname == "symmetric.class_elements"

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not tr.on:
                yield from fn(*args, **kwargs)
                return
            tr.count(qualname, args, kwargs)
            it = fn(*args, **kwargs)
            span_id = None
            while True:
                span_id = tr.enter(layer, qualname, span_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.leave()
                if counted:
                    tr.counts["symmetric.elements"] += 1
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        tr.count(qualname, args, kwargs)
        tr.enter(layer, qualname)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = tr.leave()
            if inclusive is not None:
                tr.inclusive[inclusive] += dur

    return wrapper


def install(tr: Tracer) -> dict:
    """Wrap every layer's public functions and return {qualname: original}."""
    package = importlib.import_module("covercount")
    modules = [package] + [importlib.import_module(f"covercount.{m}") for m in LAYERS]
    replaced: dict[int, object] = {}  # id(original) -> wrapper
    originals: dict[str, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"covercount.{layer}")
        for name, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not name.startswith(("_", "perm_"))
                and name not in SKIP
            ):
                replaced[id(fn)] = _wrap(tr, layer, name, fn)
                originals[f"{layer}.{name}"] = fn
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name not in DUNDERS:
                    continue
                qual = f"{cls_name}.{name}"
                if isinstance(attr, (classmethod, staticmethod)):
                    setattr(cls, name, type(attr)(_wrap(tr, layer, qual, attr.__func__)))
                elif inspect.isfunction(attr):
                    setattr(cls, name, _wrap(tr, layer, qual, attr))
    for mod in modules:
        for name, value in list(vars(mod).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(mod, name, wrapper)
    return originals


def layer_metrics(tr: Tracer, wall_s: float) -> dict:
    """Per-layer self times and counters of one traced job."""
    out = {f"{layer}.self_s": tr.self_s[layer] for layer in LAYERS}
    out.update(tr.counts)
    out.update(tr.inclusive)
    out["trace.unattributed_s"] = wall_s - sum(tr.self_s.values())
    return out
