"""Span tracing for the benchmark's traced runs.

`Tracer.install` rebinds chosen functions of the `nondiv` package to
recording wrappers, in every loaded `nondiv` module that holds them by name,
and `Tracer.uninstall` puts the originals back. An untraced run never
installs anything, so it measures the unmodified program.

Three kinds of wrapper:
  span   records (id, parent, op, name, start, end, child time); a layer's
         self time is its duration minus the time its children cover.
  count  counts calls only; the call's time stays in the enclosing span.
  module counts calls of every function of one high-frequency module
         (`ratlin`) and times only the outermost call, adding that time to
         the module total and to the enclosing span's child time. No span
         is kept per call.

Wrappers record only while an op is open (`Tracer.op`), so the harness's
own input preparation and output checks do not count.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute) pairs it wraps
SPANS = {
    "lattice.m_closure": [("nondiv.lattice", "m_closure")],
    "enumeration.lll_reduce_gram": [("nondiv.enumeration", "lll_reduce_gram")],
    "enumeration.enumerate": [("nondiv.enumeration", "_enumerate_gram")],
    "enumeration.quotient": [("nondiv.enumeration", "_Quotient")],
    "enumeration.rational_roots": [("nondiv.enumeration", "rational_roots")],
    "enumeration.common_eigenspace_bases": [
        ("nondiv.enumeration", "common_eigenspace_bases")],
    "enumeration.delta_m": [("nondiv.enumeration", "delta_m")],
    "pushout.protect": [("nondiv.pushout", "protect")],
    "pushout.expansion_element": [("nondiv.pushout", "expansion_element")],
    "pushout.step": [("nondiv.pushout", "_execute_step")],
    "pushout.drive": [("nondiv.pushout", "drive")],
    "exterior": [("nondiv.exterior", "contraction_constant"),
                 ("nondiv.exterior", "wedge_scaling_range"),
                 ("nondiv.exterior", "apply_torus_to_wedge")],
    "serialize.load": [("nondiv.serialize", "load_lattice"),
                       ("nondiv.serialize", "load_scenario")],
    "serialize.emit": [("nondiv.serialize", "certificate_to_dict"),
                       ("nondiv.serialize", "certificate_to_csv"),
                       ("nondiv.serialize", "dumps_json")],
}
COUNTS = {
    "lattice.covolume_sq": ("nondiv.lattice", "covolume_sq"),
    "lattice.is_m_stable": ("nondiv.lattice", "is_m_stable"),
}
MODULE = "nondiv.ratlin"

# span record fields
ID, PARENT, OP, NAME, START, END, CHILD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.module_s = 0.0
        self.closures: set = set()
        self.vectors = 0
        self._stack: list[list] = []
        self._active = False
        self._depth = 0
        self._op = 0
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def op(self, name: str = "op"):
        """Record everything the block calls as one op with its own id."""
        self._op += 1
        self._active = True
        try:
            with self.span(name):
                yield
        finally:
            self._active = False

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent[ID] if parent else None, self._op, name,
               perf_counter(), 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            if parent:
                parent[CHILD] += rec[END] - rec[START]

    def _span_wrapper(self, name, fn, on_result=None):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result:
                on_result(args, out)
            return out
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self._active:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _module_wrapper(self, name, fn):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth = 0
                self.module_s += dt
                self._stack[-1][CHILD] += dt
        return wrapper

    def _closure_result(self, args, out):
        rows = getattr(out, "rows", None)
        self.closures.add((self._op, args[0].basis, rows))

    def _enumerate_result(self, args, out):
        self.vectors += len(out)

    # -- installation ----------------------------------------------------

    def install(self):
        """Rebind the traced functions wherever a nondiv module holds them."""
        hooks = {"lattice.m_closure": self._closure_result,
                 "enumeration.enumerate": self._enumerate_result}
        plan = []
        for name, targets in SPANS.items():
            for mod, attr in targets:
                fn = getattr(sys.modules[mod], attr)
                plan.append((fn, self._span_wrapper(name, fn, hooks.get(name))))
        for name, (mod, attr) in COUNTS.items():
            fn = getattr(sys.modules[mod], attr)
            plan.append((fn, self._count_wrapper(name, fn)))
        module = sys.modules[MODULE]
        short = MODULE.rsplit(".", 1)[1]
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == MODULE:
                plan.append((fn, self._module_wrapper(f"{short}.{attr}", fn)))
        for orig, wrapper in plan:
            for mod in [m for n, m in sys.modules.items()
                        if n == "nondiv" or n.startswith("nondiv.")]:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- aggregation -----------------------------------------------------

    def totals(self) -> tuple[Counter, defaultdict]:
        """(calls per span name, self seconds per span name) over all spans."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for rec in self.spans:
            calls[rec[NAME]] += 1
            self_s[rec[NAME]] += rec[END] - rec[START] - rec[CHILD]
        return calls, self_s

    def rechecks(self) -> list[list]:
        """delta_m spans nested under a push-out step (the a-posteriori check)."""
        out = []
        for rec in self.spans:
            if rec[NAME] != "enumeration.delta_m":
                continue
            p = rec[PARENT]
            while p is not None and self.spans[p][NAME] != "pushout.step":
                p = self.spans[p][PARENT]
            if p is not None:
                out.append(rec)
        return out
