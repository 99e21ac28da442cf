"""Per-layer tracing of ratcert from outside the program.

``Tracer.install`` wraps public functions of the program's modules at
runtime: every module attribute (and class attribute) that is the original
function object is replaced, so a module that imported a function by name
(``analyzer`` imports ``solve_general``, for example) calls the wrapper too.
No program file changes.

Timed functions record spans (id, parent span, thread, name, start, end) in
memory; counted functions only bump a counter.  Spans of a worker thread
with no open span of its own take the running ``cli.run`` span as parent.
A target that no longer exists is reported as absent, with every metric
that depends on it.

Span times are read from a clock that stops while the tracer computes a
span's attributes (the coefficient scan of ``solve_linear_system`` costs a
fifth of the elimination itself), so that work is charged to no span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# span name -> (module, attribute)
SPANNED = {
    "cli.run": ("ratcert.cli", "run"),
    "parsing.parse_poly": ("ratcert.parsing", "parse_poly"),
    "parsing.parse_univar_ratfunc": ("ratcert.parsing", "parse_univar_ratfunc"),
    "planar.infinity_transform": ("ratcert.planar", "infinity_transform"),
    "planar.is_invariant_curve": ("ratcert.planar", "is_invariant_curve"),
    "planar.foliation_derivatives": ("ratcert.planar", "foliation_derivatives"),
    "analyzer.analyze": ("ratcert.analyzer", "analyze"),
    "analyzer.check_h1": ("ratcert.analyzer", "check_h1"),
    "analyzer.check_hk": ("ratcert.analyzer", "check_hk"),
    "risch.solve_general": ("ratcert.risch", "solve_general"),
    "risch.match_kaltofen": ("ratcert.risch", "match_kaltofen"),
    "risch.solve_xk_specialized": ("ratcert.risch", "solve_xk_specialized"),
    "risch.solve_undetermined": ("ratcert.risch", "solve_undetermined"),
    "risch.solve_linear_system": ("ratcert.risch", "solve_linear_system"),
    "risch.verify_solution": ("ratcert.risch", "verify_solution"),
    "algebra.residues": ("ratcert.algebra", "residues"),
    "algebra.hermite_reduce": ("ratcert.algebra", "hermite_reduce"),
    "algebra.rational_roots": ("ratcert.algebra", "rational_roots"),
}
# counter name -> (module, attribute or Class.attribute)
COUNTED = {
    "risch.build_risch": ("ratcert.risch", "build_risch"),
    "algebra.squarefree_decompose": ("ratcert.algebra", "squarefree_decompose"),
    "algebra.poly_gcd": ("ratcert.algebra", "poly_gcd"),
    "algebra.Poly.__mul__": ("ratcert.algebra", "Poly.__mul__"),
    "algebra.RatFunc.__init__": ("ratcert.algebra", "RatFunc.__init__"),
}


def _linsolve_attrs(rows, rhs, ncols, *_):
    """Size of one elimination: cells and the largest coefficient bit length."""
    bits = 0
    for row in rows:
        for v in row:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    for v in rhs:
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return {"rows": len(rows), "cols": ncols, "bits": bits}


ATTRS = {"risch.solve_linear_system": _linsolve_attrs}


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters = {name: itertools.count() for name in COUNTED}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        # seconds spent computing span attributes, taken off the span clock
        self._excluded = 0.0
        self._excluded_lock = threading.Lock()

    def _clock(self) -> float:
        return time.perf_counter() - self._excluded

    def _attrs(self, attrs_of, args, kwargs) -> dict:
        s0 = time.perf_counter()
        attrs = attrs_of(*args, **kwargs)
        with self._excluded_lock:
            self._excluded += time.perf_counter() - s0
        return attrs

    # -- installation -------------------------------------------------------

    def _resolve(self, module: str, attr: str):
        mod = sys.modules.get(module)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None:
            return None, None
        return owner, vars(owner).get(name)

    def _patch(self, owner, original, wrapper) -> None:
        """Replace ``original`` wherever the program holds it by name."""
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ratcert"]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, name, original))
                    setattr(holder, name, wrapper)

    def install(self) -> None:
        for name, (module, attr) in SPANNED.items():
            owner, fn = self._resolve(module, attr)
            if fn is None:
                self.absent.append(name)
            else:
                self._patch(owner, fn, self._span_wrapper(name, fn))
        for name, (module, attr) in COUNTED.items():
            owner, fn = self._resolve(module, attr)
            if fn is None:
                self.absent.append(name)
            else:
                self._patch(owner, fn, self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        """Restore the program and read the counters."""
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()
        # each call advanced its counter once, so next() returns the call count
        self.counts = {
            name: next(counter) for name, counter in self.counters.items() if name not in self.absent
        }

    def _span_wrapper(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        attrs_of = ATTRS.get(name)
        is_root = name == "cli.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            attrs = self._attrs(attrs_of, args, kwargs) if attrs_of else None
            sid = next(ids)
            stack.append(sid)
            if is_root:
                self._root = sid
            t0 = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = self._clock()
                stack.pop()
                if is_root:
                    self._root = None
                spans.append((sid, parent, threading.get_ident(), name, t0, t1, attrs))

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tick = self.counters[name].__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "thread", "name", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
            handle.write(json.dumps({"counters": self.counts, "absent": self.absent}) + "\n")

    def metrics(self, ops: int) -> tuple[dict, list[str]]:
        """Per-layer metrics per operation (``max_*`` are maxima), and the
        names of metrics whose functions are absent."""
        by_name: dict[str, list[tuple]] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            by_name.setdefault(span[3], []).append(span)
            if span[1] is not None:
                children.setdefault(span[1], []).append((span[4], span[5]))
        name_of = {s[0]: s[3] for s in self.spans}

        def total(name):
            return sum(s[5] - s[4] for s in by_name.get(name, ()))

        def calls(name):
            return len(by_name.get(name, ()))

        def self_time(name):
            return sum(
                (s[5] - s[4]) - _union_length(children.get(s[0], []), s[4], s[5])
                for s in by_name.get(name, ())
            )

        lin = [s[6] for s in by_name.get("risch.solve_linear_system", ())]
        parse = ("parsing.parse_poly", "parsing.parse_univar_ratfunc")
        table = {
            "cli.self_s": (("cli.run",), lambda: self_time("cli.run") / ops, "s"),
            "parsing.parse_s": (parse, lambda: sum(map(total, parse)) / ops, "s"),
            "parsing.parse_calls": (parse, lambda: sum(map(calls, parse)) / ops, "count"),
            "planar.chart_s": (("planar.infinity_transform",), None, "s"),
            "planar.invariance_s": (("planar.is_invariant_curve",), None, "s"),
            "planar.invariance_calls": (("planar.is_invariant_curve",), None, "count"),
            "planar.betas_s": (("planar.foliation_derivatives",), None, "s"),
            "analyzer.h1_s": (("analyzer.check_h1",), None, "s"),
            "analyzer.orders": (
                ("analyzer.check_hk", "analyzer.analyze"),
                lambda: sum(
                    1 for s in by_name.get("analyzer.check_hk", ())
                    if name_of.get(s[1]) == "analyzer.analyze"
                ) / ops,
                "count",
            ),
            "analyzer.self_s": (
                ("analyzer.analyze",), lambda: self_time("analyzer.analyze") / ops, "s"
            ),
            "risch.build_calls": (("risch.build_risch",), None, "count"),
            "risch.general_s": (("risch.solve_general",), None, "s"),
            "risch.general_calls": (("risch.solve_general",), None, "count"),
            "risch.match_s": (("risch.match_kaltofen",), None, "s"),
            "risch.specialized_s": (("risch.solve_xk_specialized",), None, "s"),
            "risch.undetermined_s": (("risch.solve_undetermined",), None, "s"),
            "risch.linsolve_s": (("risch.solve_linear_system",), None, "s"),
            "risch.linsolve_calls": (("risch.solve_linear_system",), None, "count"),
            "risch.linsolve_cells": (
                ("risch.solve_linear_system",),
                lambda: sum(a["rows"] * a["cols"] for a in lin) / ops,
                "count",
            ),
            "risch.linsolve_max_cols": (
                ("risch.solve_linear_system",), lambda: max((a["cols"] for a in lin), default=0), "count"
            ),
            "risch.linsolve_max_bits": (
                ("risch.solve_linear_system",), lambda: max((a["bits"] for a in lin), default=0), "bit"
            ),
            "risch.verify_s": (("risch.verify_solution",), None, "s"),
            "algebra.residues_s": (("algebra.residues",), None, "s"),
            "algebra.residues_calls": (("algebra.residues",), None, "count"),
            "algebra.hermite_s": (("algebra.hermite_reduce",), None, "s"),
            "algebra.rational_roots_s": (("algebra.rational_roots",), None, "s"),
            "algebra.squarefree_calls": (("algebra.squarefree_decompose",), None, "count"),
            "algebra.gcd_calls": (("algebra.poly_gcd",), None, "count"),
            "algebra.poly_mul_calls": (("algebra.Poly.__mul__",), None, "count"),
            "algebra.ratfunc_new": (("algebra.RatFunc.__init__",), None, "count"),
        }
        out, absent = {}, []
        for metric, (needs, compute, unit) in table.items():
            if any(n in self.absent for n in needs):
                absent.append(metric)
                continue
            if compute is None:
                (source,) = needs
                if source in COUNTED:
                    value = self.counts[source] / ops
                elif unit == "count":
                    value = calls(source) / ops
                else:
                    value = total(source) / ops
            else:
                value = compute()
            out[metric] = (value, unit)
        return out, absent
