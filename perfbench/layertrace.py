"""In-memory tracing of the library's layers, installed from outside.

``Tracer.install`` replaces the public entry point of each layer with a
wrapper that records a span (name, start, end, parent), and the scalar
products of ``exactnum`` with count-only wrappers.  Nothing inside the
library changes: module functions are rebound on their modules and
methods on their classes, so every call made through the module or the
class goes through the wrapper.  A span's self time is its duration
minus the time its child spans cover.  Spans stay in memory until
``write_spans`` is called after the timed region.
"""

from __future__ import annotations

import gzip
import json
import time

from onsaw import askey_wilson as aw
from onsaw import linsolve
from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw import rmatrix as rm
from onsaw import series
from onsaw.exactnum import ParamPoly, SpectralLaurent

# (owner, attribute, span name); owners are modules or classes
SPANNED = (
    (rm.TensorOperator, "__matmul__", "rmatrix.matmul"),
    (rm.TensorOperator, "__add__", "rmatrix.add"),
    (la, "bracket", "loop_algebra.bracket"),
    (on, "bracket_abstract", "onsager.bracket"),
    (series.BiSeries, "bracket_cross", "series.bracket_cross"),
    (series.BiSeries, "commutator_scalar", "series.commutator_scalar"),
    (series.BiSeries, "convolve", "series.convolve"),
    (series.BiSeries, "first_mismatch", "series.first_mismatch"),
    (series.GeneratorMatrix, "first_mismatch", "series.first_mismatch"),
    (aw.StructTable, "bracket", "askey_wilson.table_bracket"),
    (linsolve.SparseEliminator, "add_row", "linsolve.add_row"),
    (linsolve.SparseEliminator, "solve", "linsolve.solve"),
)

COUNTED = (
    (ParamPoly, "__mul__", "exactnum.pp_mul"),
    (ParamPoly, "__rmul__", "exactnum.pp_mul"),
    (SpectralLaurent, "__mul__", "exactnum.sl_mul"),
    (SpectralLaurent, "__rmul__", "exactnum.sl_mul"),
    (linsolve, "poly_gcd", "linsolve.poly_gcd"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []   # (span id, parent id or -1, name, start, end)
        self.stack: list = []   # open spans: [span id, time covered by children]
        self.calls: dict = {}   # name -> calls
        self.self_s: dict = {}  # name -> summed self time
        self.nonzero_brackets = 0
        self.pivots_kept = 0
        self._saved: list = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans.append((sid, -1 if parent is None else parent[0], name, start, end))

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def _bracket_outcomes(self, fn):
        def bracket(a, b):
            out = fn(a, b)
            if not out.is_zero():
                self.nonzero_brackets += 1
            return out

        return bracket

    def _pivot_outcomes(self, fn):
        def add_row(elim, coeffs, rhs):
            before = len(elim.pivots)
            fn(elim, coeffs, rhs)
            self.pivots_kept += len(elim.pivots) - before

        return add_row

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        """Rebind owner.attr to make(original function), keeping classmethods."""
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        outcomes = {"loop_algebra.bracket": self._bracket_outcomes,
                    "linsolve.add_row": self._pivot_outcomes}
        for owner, attr, name in SPANNED:
            hook = outcomes.get(name, lambda fn: fn)
            self._replace(owner, attr, lambda fn, n=name, h=hook: self._spanned(n, h(fn)))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def op(self, name: str, fn):
        """Run one workload operation as a root span named after it."""
        return self._spanned(f"op {name}", fn)()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times and ratios of everything traced."""
        layers = [name for name in self.calls if not name.startswith("op ")]
        out = {f"{name}.calls": self.calls[name] for name in layers}
        out.update({f"{name}.self_s": self.self_s[name] for name in layers if name in self.self_s})
        br = self.calls.get("loop_algebra.bracket", 0)
        rows = self.calls.get("linsolve.add_row", 0)
        out["loop_algebra.bracket.nonzero_ratio"] = self.nonzero_brackets / br if br else 0.0
        out["linsolve.pivot_ratio"] = self.pivots_kept / rows if rows else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """One gzip-compressed JSON line per span, in start order."""
        with gzip.open(path, "wt") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
