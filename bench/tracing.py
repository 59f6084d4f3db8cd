"""Per-layer spans and counts, recorded from the benchmark's side.

``Tracer.install`` replaces the library's public functions with wrappers
that time each call (``<layer>.<function>`` spans, parent links for self
time) and, for the p-adic layer, only count calls.  ``Tracer.remove``
puts the originals back, so untraced rounds run the library untouched.
Spans stay in memory; ``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# layer -> public functions wrapped; None means every public function
# defined in the module
SPANNED = {
    "newton": None,
    "commutant": None,
    "oracle": None,
    "ramification": None,
    "cli": ("main",),
}
SERIES_METHODS = {"compose": "compose", "iterate": "iterate",
                  "reversion": "reversion", "__mul__": "mul"}
PADIC_ARITH = ("__add__", "__sub__", "__mul__", "__truediv__")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []             # (id, layer, name, t0, t1, parent)
        self.counts = defaultdict(int)
        self.min_out_prec = math.inf
        self._ids = itertools.count()
        self._main_stack = []
        self._local = threading.local()
        self._undo = []
        self._stdout_marks = []

    # -- spans ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, layer, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a --jobs worker thread: its caller is the span open on
                # the main thread
                tail = tracer._main_stack[-1:]
                parent = tail[0] if tail else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, layer, name, t0, t1, parent))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, key, fn):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # + and - call each other inside the class; count the outer one
            if getattr(local, "busy", False):
                return fn(*args, **kwargs)
            local.busy = True
            tracer.counts[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.busy = False

        return wrapper

    # -- counters read at the layer boundary -------------------------------

    def _compose_args(self, args, kwargs):
        outer, inner = args[0], args[1]
        order = kwargs.get("order", args[2] if len(args) > 2 else None)
        K = outer.ctx.K
        nonzero = _nonzero_test(outer.ring)
        self.counts["series.compose.inner_terms"] += sum(1 for c in inner.coeffs if nonzero(c))
        degree = max((i for i, c in enumerate(outer.coeffs, 1) if nonzero(c)), default=0)
        self.counts["series.compose.outer_degree"] += degree
        self.counts["series.compose.order"] += K if order is None else min(order, K)

    def _note_precision(self, precs):
        finite = [q for q in precs if not math.isinf(q)]
        if finite:
            self.min_out_prec = min(self.min_out_prec, min(finite))

    def _after_certificate(self, cert):
        if cert.coefficient_precision:
            self._note_precision(cert.coefficient_precision)

    def _after_float_series(self, series):
        self._note_precision([c.precision for c in series.coeffs])

    def _after_linearization(self, lin):
        self._after_float_series(lin.series)

    def _before_main(self, args, kwargs):
        self._stdout_marks.append(sys.stdout.tell())

    def _after_main(self, code):
        # the cli workload captures stdout in a StringIO; its JSON is ASCII
        self.counts["cli.out_bytes"] += sys.stdout.tell() - self._stdout_marks.pop()

    # -- install / remove -------------------------------------------------------

    def _replace(self, original, wrapper):
        """Rebind every name in the package that refers to original."""
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        prefix = self.package.__name__
        hooks = {
            "commutant.certify_torsion": (None, self._after_certificate),
            "commutant.commutant": (None, self._after_float_series),
            "commutant.linearize": (None, self._after_linearization),
            "cli.main": (self._before_main, self._after_main),
        }
        for layer, names in SPANNED.items():
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ != mod.__name__ or name.startswith("_"):
                    continue
                if names is not None and name not in names:
                    continue
                label = f"{layer}.{name}"
                before, after = hooks.get(label, (None, None))
                self._replace(fn, self._spanned(layer, label, fn, before, after))
        series_cls = sys.modules[f"{prefix}.series"].PowerSeries
        for attr, label in SERIES_METHODS.items():
            fn = series_cls.__dict__[attr]
            before = self._compose_args if attr == "compose" else None
            setattr(series_cls, attr, self._spanned("series", f"series.{label}", fn, before))
            self._undo.append((series_cls, attr, fn))
        padic_cls = sys.modules[f"{prefix}.padic"].PadicNumber
        for attr in PADIC_ARITH:
            fn = padic_cls.__dict__[attr]
            setattr(padic_cls, attr, self._counted("padic.arith.calls", fn))
            self._undo.append((padic_cls, attr, fn))
        make = padic_cls.__dict__["make"]
        setattr(padic_cls, "make", classmethod(self._counted("padic.make.calls", make.__func__)))
        self._undo.append((padic_cls, "make", make))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-round means of calls, span time and layer self time."""
        children = defaultdict(list)
        for sid, _layer, _name, t0, t1, parent in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        calls = defaultdict(int)
        total_ns = defaultdict(int)
        self_ns = defaultdict(int)
        for sid, layer, name, t0, t1, _parent in self.spans:
            calls[name] += 1
            total_ns[name] += t1 - t0
            self_ns[layer] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.ms"] = total_ns[name] / 1e6 / rounds
        for layer in self_ns:
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / rounds
        for key in ("padic.arith.calls", "padic.make.calls", "series.compose.inner_terms",
                    "cli.out_bytes"):
            out[key] = self.counts[key] / rounds
        order = self.counts["series.compose.order"]
        out["series.compose.outer_used_ratio"] = (
            self.counts["series.compose.outer_degree"] / order if order else 0.0)
        out["commutant.min_out_prec"] = (
            0 if math.isinf(self.min_out_prec) else self.min_out_prec)
        return out

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": extra,
                       "spans": [list(s) for s in sorted(self.spans)]}, fh)
            fh.write("\n")


def _nonzero_test(ring):
    if ring == "float":
        return lambda c: not (math.isinf(c.valuation) and math.isinf(c.precision))
    return bool


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
