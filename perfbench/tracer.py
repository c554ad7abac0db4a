"""Spans and counters recorded from outside the exopoly package.

The package imports by name (``from .quadrature import gram``), so a traced
function is rebound in every ``exopoly`` module that holds it, not only in
the module that defines it.  Each span is ``[name, start, end, parent, op]``:
``parent`` indexes the enclosing span (-1 at the top) and ``op`` is the id
of the benchmark operation the span belongs to.  Spans stay in memory until
``dump`` or ``summarize``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (defining module, function, span name); a span name ending in "." takes
# the call's first argument (the suite) as suffix; None counts calls only
TARGETS = (
    ("exopoly.verify", "run_suite", "verify."),
    ("exopoly.systems", "build_system", "systems.build_system"),
    ("exopoly.systems", "exceptional_poly", "systems.exceptional_poly"),
    ("exopoly.systems", "ode_residual", "systems.ode_residual"),
    ("exopoly.systems", "shifted_form_poly", "systems.shifted_form_poly"),
    ("exopoly.systems", "potential_eval", "systems.potential_eval"),
    ("exopoly.systems", "wavefunction_eval", "systems.wavefunction_eval"),
    ("exopoly.classical", "jacobi", "classical.jacobi"),
    ("exopoly.classical", "laguerre", "classical.laguerre"),
    ("exopoly.polycore", "sturm_count", "polycore.sturm_count"),
    ("exopoly.quadrature", "gram", "quadrature.gram"),
    ("exopoly.quadrature", "integrate", "quadrature.integrate"),
    ("exopoly.spectral", "discretize", "spectral.discretize"),
    ("exopoly.spectral", "eigen_lowest", "spectral.eigen_lowest"),
    # one call per inertia count, i.e. per bisection step
    ("exopoly.spectral", "_count_below", None),
)

POLY_RESULTS = {
    "systems.exceptional_poly", "systems.ode_residual", "systems.shifted_form_poly",
    "classical.jacobi", "classical.laguerre",
}


def cache_stats() -> dict:
    """Hits and misses of the classical LRU caches, per family."""
    classical = sys.modules["exopoly.classical"]
    out = {}
    for family, attr in (("jacobi", "_jacobi_cached"), ("laguerre", "_laguerre_cached")):
        info = getattr(getattr(classical, attr, None), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        out[family] = [hits, misses]
    return out


class Tracer:
    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.bits_max = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        suite_span = name.endswith(".")
        post = self._poly_bits if name in POLY_RESULTS else None

        def traced(*args, **kwargs):
            label = name + args[0] if suite_span else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    def _poly_bits(self, poly) -> None:
        for c in poly.coeffs:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.bits_max:
                self.bits_max = bits

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _integrate(self, fn):
        quadrature = sys.modules["exopoly.quadrature"]
        counts = self.counts

        def integrate(f, *args, **kwargs):
            def counted_f(eta):
                counts["quadrature.nodes_evaluated"] += len(eta)
                return f(eta)

            counts["quadrature.integrate_calls"] += 1
            try:
                return fn(counted_f, *args, **kwargs)
            except quadrature.QuadratureConvergenceError:
                counts["quadrature.convergence_failures"] += 1
                raise

        return self.wrap("quadrature.integrate", integrate)

    def install(self) -> None:
        """Rebind every target in every loaded exopoly module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "exopoly" or n.startswith("exopoly."))]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                continue
            if name is None:
                replacement = self._counted("spectral.bisection_steps", original)
            elif attr == "integrate":
                replacement = self._integrate(original)
            else:
                replacement = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, replacement)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def record(self, extra: dict) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "bits_max": self.bits_max, "cache": cache_stats(), **extra}

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump(self.record(extra), fh)


def summarize(spans) -> dict:
    """Per span name: [calls, inclusive seconds, self seconds].

    Inclusive time counts only outermost spans of a name, so a name nested
    in itself is not counted twice; self time is a span's duration minus the
    time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += end - start - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row[1] += end - start
    return out
