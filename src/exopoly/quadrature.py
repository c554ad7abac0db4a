"""Normalized Gram matrices under the deformed orthogonality weights.

The closed-form norms of the deformed families involve non-elementary
integrals, so orthogonality is checked numerically, by tanh-sinh
(double-exponential) quadrature, which absorbs the algebraic endpoint
singularities of the weights without case analysis.  Each node carries its
distance from each finite endpoint, computed directly, and the weight's
endpoint factors are taken from those distances: near an end the node
itself rounds to the endpoint long before its distance leaves the float
range.  A half line is the unit interval's rule, each node t of (0, 1)
mapped by eta = t / (1 - t) = d_lo / d_hi, its distances from 0 and 1; this
presumes integrands with at least exponential decay (true of every weight
here).  One rule, refined level by level, serves each Gram matrix: every
normalized entry must settle under the same node cap (the tolerance is on
the normalized entry), a failure names the pair of levels, and a norm
beyond the float range names the level.  Everything runs over plain Python floats, with exp and log from
libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Sequence

from .polycore import Interval, Poly
from .systems import XSystem, level_poly

_MAX_NODES = 2 ** 14  # refinement stops at the first level that reaches this many nodes
_RTOL = 1e-12  # relative tolerance of each Gram entry
_BLOCK = 1024  # nodes per evaluation block: bounds the Phi lists
_ETA_CAP = 1e6  # drop mapped nodes beyond this on semi-infinite domains
_UNIT = Interval(Fraction(0), Fraction(1))  # the rule a half line maps


class QuadratureConvergenceError(RuntimeError):
    """Adaptive integration stalled; carries the best available estimate."""

    def __init__(self, message: str, achieved: float, last_change: float, nodes: int):
        super().__init__(f"{message} after {nodes} nodes "
                         f"(achieved estimate {achieved!r}, last change {last_change!r})")
        self.message = message
        self.achieved = achieved
        self.last_change = last_change
        self.nodes = nodes

    def __reduce__(self):  # rebuilt from the raw message, so it survives pickling
        return type(self), (self.message, self.achieved, self.last_change, self.nodes)


def _ts_points(domain: Interval, level: int):
    """Yield (eta, d_lo, d_hi, weight) for each node of one tanh-sinh
    refinement step on a domain with a finite lower bound: the node, its
    distances from the lower and the upper end (inf for an infinite end),
    and its weight.

    Level 1 is the complete rule at step h = 2^-level = 1/2; above it only
    the odd multiples of h appear (the nodes absent from level-1), so
    S(level) = S(level-1)/2 + sum(new weights * new values).  At u = k h,
    z = pi/2 sinh(u), each node's distance from the nearer end of (-1, 1) is
    1 - tanh(z) = 2 / (e^(2z) + 1), computed directly, and a node is kept
    while that distance is positive, even where the node itself rounds to
    the endpoint.  A half line (lo, inf) is the unit interval's rule: each
    node t of (0, 1), with d_lo and d_hi its distances from 0 and 1, maps to
    eta - lo = t / (1 - t) = d_lo / d_hi, its weight times the Jacobian
    1 / (1 - t)^2 = 1 / d_hi^2.
    """
    lo, hi = float(domain.lo), float(domain.hi)
    if math.isinf(hi):
        for _, t_lo, t_hi, weight in _ts_points(_UNIT, level):
            eta = t_lo / t_hi
            if 0.0 < eta < _ETA_CAP:
                # pow and a product can round a square an ulp apart: t_hi ** 2
                # on the lower half of (0, 1) and t_hi * t_hi on the upper half
                # give each node the bits of the rule derived on t = d and
                # t = 1 - d directly (tests/oracles.py, half_line_points)
                jac = 1.0 / (t_hi ** 2 if t_lo < t_hi else t_hi * t_hi)
                yield lo + eta, eta, math.inf, weight * jac
        return
    half, h = 0.5 * (hi - lo), 2.0 ** (-level)
    if level == 1:
        yield 0.5 * (hi + lo), half, half, half * (0.5 * math.pi) * h
    for k in range(1, int(4.0 / h) + 1, 1 if level == 1 else 2):
        u = k * h
        z = 0.5 * math.pi * math.sinh(u)
        d = half * (2.0 / (math.exp(2 * z) + 1.0))
        if d > 0.0:
            w = half * (0.5 * math.pi * math.cosh(u) / math.cosh(z) ** 2 * h)
            yield lo + d, d, 2 * half - d, w
            yield hi - d, 2 * half - d, d, w


def _phi(sys: XSystem, polys: list[Poly], eta: Sequence[float], d_lo: Sequence[float],
         d_hi: Sequence[float]) -> list[list[float]]:
    """Phi[n](eta) = sqrt(w) p_n / xi at each node, one list per polynomial
    (p_n and xi by Poly.float_values), with d_lo and d_hi the nodes' distances
    from the ends; sign times exp of a log-space magnitude, so the weight factor
    neither overflows nor underflows ahead of the polynomials.  A magnitude
    beyond the float range raises OverflowError from exp: gram reports it."""
    w = sys.weight
    s, a, b, c = float(w.s), float(w.a), float(w.b), float(w.c)
    exp, log, copysign = math.exp, math.log, math.copysign
    log_w = [s * e for e in eta]
    for k, dist in ((a, eta), (b, d_hi), (c, d_lo)):
        if k:
            log_w = [x + k * log(d) for x, d in zip(log_w, dist)]
    log_half = [0.5 * x - log(abs(q)) for x, q in zip(log_w, sys.xi.float_values(eta))]
    return [[copysign(exp(x + log(abs(v))), v) if v else 0.0
             for x, v in zip(log_half, p.float_values(eta))] for p in polys]


@dataclass(frozen=True)
class GramReport:
    size: int
    matrix: tuple[tuple[float, ...], ...]

    @property
    def max_offdiag(self) -> float:
        """The largest |off-diagonal entry|, or NaN if any entry is NaN."""
        offdiag = (abs(x) for i, row in enumerate(self.matrix) for x in row[i + 1:])
        return max(offdiag, key=lambda x: (x != x, x))


def gram(sys: XSystem, N: int) -> GramReport:
    """Normalized Gram matrix of the lowest N levels, on one shared rule.

    Entries g_nm = <p_n, p_m> / sqrt(<p_n, p_n> <p_m, p_m>); for the
    extended Jacobi case level 0 is the constant ground function.  Each
    tanh-sinh level evaluates Phi once per new node, _BLOCK nodes at a time,
    and adds sum(Phi_n w Phi_m) to every entry n <= m, until every entry
    changes by at most _RTOL * sqrt(I_nn I_mm) on the level's own diagonal:
    the tolerance is on the normalized entry g_nm, so tiny integrals
    (orthogonality defects) converge too.  At the node cap the error names
    the first unconverged pair; a norm beyond the float range raises
    OverflowError (a finite diagonal bounds every entry).
    """
    if N < 2:
        raise ValueError(f"{sys.label}: need at least two levels")
    polys = [level_poly(sys, n) for n in range(N)]
    pairs = [(i, j) for i in range(N) for j in range(i, N)]
    prev, n_nodes, level = None, 0, 1
    total = [0.0] * len(pairs)

    def beyond_floats():
        return OverflowError(f"{sys.label}: Gram entries beyond the float range "
                             f"at tanh-sinh level {level}")

    while True:
        sums = [0.0] * len(pairs)
        points = _ts_points(sys.domain_eta, level)
        while block := list(islice(points, _BLOCK)):
            eta, d_lo, d_hi, weights = zip(*block)
            try:
                v = _phi(sys, polys, eta, d_lo, d_hi)
            except OverflowError:
                raise beyond_floats() from None
            vw = [list(map(mul, row, weights)) for row in v]
            for k, (i, j) in enumerate(pairs):
                sums[k] += sum(map(mul, vw[i], v[j]))
            n_nodes += len(block)
        total = [0.5 * t + x for t, x in zip(total, sums)]
        raw = dict(zip(pairs, total))
        norms = [math.sqrt(raw[i, i]) for i in range(N)]
        if not all(map(math.isfinite, norms)):  # and so at every later level
            raise beyond_floats()
        if prev is not None:  # |I_ij| <= norms[i] * norms[j], by Cauchy-Schwarz
            bad = next((k for k, ((i, j), t, p) in enumerate(zip(pairs, total, prev))
                        if not abs(t - p) <= _RTOL * norms[i] * norms[j]), None)
            if bad is None:
                break
            if n_nodes >= _MAX_NODES:
                raise QuadratureConvergenceError(
                    f"{sys.label}, pair {pairs[bad]}: integration non-convergence at requested tolerance",
                    achieved=total[bad], last_change=abs(total[bad] - prev[bad]), nodes=n_nodes,
                )
        prev = total
        level += 1
    for i, norm in enumerate(norms):
        if not norm > 0:
            raise RuntimeError(f"{sys.label}: non-positive norm at level {i}")
    g = [[1.0 if i == j else raw[min(i, j), max(i, j)] / (norms[i] * norms[j])
          for j in range(N)] for i in range(N)]
    return GramReport(size=N, matrix=tuple(map(tuple, g)))
