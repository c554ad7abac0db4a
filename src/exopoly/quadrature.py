"""Normalized Gram matrices under the deformed orthogonality weights.

The closed-form norms of the deformed families involve non-elementary
integrals, so orthogonality is checked numerically, by tanh-sinh
(double-exponential) quadrature, which absorbs the algebraic endpoint
singularities of the weights without case analysis.  Each node carries its
distance from each finite endpoint, computed directly, and the weight's
endpoint factors are taken from those distances: near an end the node
itself rounds to the endpoint long before its distance leaves the float
range.  Semi-infinite domains are brought to (0, 1) by eta = t / (1 - t),
which presumes integrands with at least exponential decay (true of every
weight here).  One rule, refined level by level, serves each Gram matrix:
every entry must pass the adaptive criterion under the same node cap, a
failure names the pair of levels, and an entry beyond the float range names
the level.  Everything runs over plain Python floats, with exp and log from
libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import mul

from .polycore import Interval, Poly
from .systems import XSystem, _horner_nodes, level_poly

__all__ = [
    "QuadratureConvergenceError",
    "gram",
    "GramReport",
]

_MAX_NODES = 2 ** 14  # refinement stops at the first level that reaches this many nodes
_RTOL = 1e-12  # relative tolerance of each Gram entry
_BLOCK = 1024  # nodes per evaluation block: bounds the Phi lists
_ETA_CAP = 1e6  # drop mapped nodes beyond this on semi-infinite domains


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
    S(level) = S(level-1)/2 + sum(new weights * new values).  Each node's
    distance delta from the nearer end of (-1, 1) is computed directly, and
    a node is kept while that distance is positive, even where the node
    itself rounds to the endpoint.
    """
    lo, hi = float(domain.lo), float(domain.hi)
    h = 2.0 ** (-level)
    if math.isinf(hi):
        # t runs over (0, 1); eta = t/(1-t) maps onto (0, inf), shifted by lo
        if level == 1:
            yield lo + 1.0, 1.0, math.inf, 0.5 * (0.5 * math.pi) * h * 4.0  # t = 1/2
        for delta, w in _ts_steps(h, level):
            d = 0.5 * delta  # distance of t from the nearer endpoint
            if d > 0.0:
                # t = d, and t = 1 - d evaluated cancellation-free
                for eta, jac in ((d / (1.0 - d), 1.0 / (1.0 - d) ** 2), ((1.0 - d) / d, 1.0 / (d * d))):
                    if 0.0 < eta < _ETA_CAP:
                        yield lo + eta, eta, math.inf, 0.5 * w * jac
        return
    half = 0.5 * (hi - lo)
    if level == 1:
        yield 0.5 * (hi + lo), half, half, half * (0.5 * math.pi) * h
    for delta, w in _ts_steps(h, level):
        d = half * delta
        if d > 0.0:
            yield lo + d, d, 2 * half - d, half * w
            yield hi - d, 2 * half - d, d, half * w


def _ts_steps(h: float, level: int):
    """(delta, w) at the abscissae u = k h of one refinement step: delta =
    1 - tanh(z) for z = pi/2 sinh(u), by 2 / (e^(2z) + 1) without
    cancellation, and w the tanh-sinh weight at u."""
    for k in range(1, int(4.0 / h) + 1, 1 if level == 1 else 2):
        u = k * h
        z = 0.5 * math.pi * math.sinh(u)
        yield 2.0 / (math.exp(2 * z) + 1.0), 0.5 * math.pi * math.cosh(u) / math.cosh(z) ** 2 * h


def _phi(sys: XSystem, polys: list[Poly]):
    """Phi[n](eta) = sqrt(w) p_n / xi, one list per polynomial, for lists of
    nodes and their endpoint distances; sign times exp of a log-space
    magnitude, so the weight factor neither overflows nor underflows ahead
    of the polynomials.  On (0, inf) eta is its own distance from 0; on
    (-1, 1) the distances are 1 + eta and 1 - eta.  A magnitude beyond the
    float range raises OverflowError from exp: gram reports it."""
    w = sys.weight
    s, a, b, c = float(w.s), float(w.a), float(w.b), float(w.c)
    coeffs, cxi = [p.float_coeffs() for p in polys], sys.xi.float_coeffs()
    exp, log, copysign = math.exp, math.log, math.copysign

    def phi(eta, d_lo, d_hi) -> list[list[float]]:
        log_w = [s * e for e in eta]
        for k, dist in ((a, eta), (b, d_hi), (c, d_lo)):
            if k:
                log_w = [x + k * log(d) for x, d in zip(log_w, dist)]
        log_half = [0.5 * x - log(abs(q)) for x, q in zip(log_w, _horner_nodes(cxi, eta))]
        return [[copysign(exp(x + log(abs(v))), v) if v else 0.0
                 for x, v in zip(log_half, _horner_nodes(cs, eta))] for cs in coeffs]

    return phi


@dataclass(frozen=True)
class GramReport:
    size: int
    matrix: tuple[tuple[float, ...], ...]
    max_offdiag: float


def gram(sys: XSystem, N: int) -> GramReport:
    """Normalized Gram matrix of the lowest N levels, on one shared rule.

    Entries g_nm = <p_n, p_m> / sqrt(<p_n, p_n> <p_m, p_m>); for the
    extended Jacobi case level 0 is the constant ground function.  Each
    tanh-sinh level evaluates Phi once per new node, _BLOCK nodes at a time,
    and adds sum(Phi_n w Phi_m) to every entry n <= m, until every entry
    changes by at most _RTOL * max(|I|, integral of |f|), so tiny integrals
    (orthogonality defects) converge too.  At the node cap the error names
    the first unconverged pair; an entry beyond the float range raises
    OverflowError.
    """
    if N < 2:
        raise ValueError(f"{sys.label}: need at least two levels")
    phi = _phi(sys, [level_poly(sys, n) for n in range(N)])
    pairs = [(i, j) for i in range(N) for j in range(i, N)]
    prev, n_nodes, level = None, 0, 1
    total = total_abs = [0.0] * len(pairs)

    def beyond_floats():
        return OverflowError(f"{sys.label}: Gram entries beyond the float range "
                             f"at tanh-sinh level {level}")

    while True:
        sums, abs_sums = [0.0] * len(pairs), [0.0] * len(pairs)
        points = _ts_points(sys.domain_eta, level)
        while block := list(islice(points, _BLOCK)):
            eta, d_lo, d_hi, weights = zip(*block)
            try:
                v = phi(eta, d_lo, d_hi)
            except OverflowError:
                raise beyond_floats() from None
            vw = [list(map(mul, row, weights)) for row in v]
            av, avw = [list(map(abs, row)) for row in v], [list(map(abs, row)) for row in vw]
            for k, (i, j) in enumerate(pairs):
                sums[k] += sum(map(mul, vw[i], v[j]))
                abs_sums[k] += sum(map(mul, avw[i], av[j]))
            n_nodes += len(block)
        total = [0.5 * t + x for t, x in zip(total, sums)]
        total_abs = [0.5 * t + x for t, x in zip(total_abs, abs_sums)]
        if not all(map(math.isfinite, total_abs)):  # and so at every later level
            raise beyond_floats()
        if prev is not None:
            bad = next((k for k, (t, p, ta) in enumerate(zip(total, prev, total_abs))
                        if not abs(t - p) <= _RTOL * max(abs(t), ta)), None)
            if bad is None:
                break
            if n_nodes >= _MAX_NODES:
                raise QuadratureConvergenceError(
                    f"{sys.label}, pair {pairs[bad]}: integration non-convergence at requested tolerance",
                    achieved=total[bad], last_change=abs(total[bad] - prev[bad]), nodes=n_nodes,
                )
        prev = total
        level += 1
    raw = dict(zip(pairs, total))
    diag = [raw[i, i] for i in range(N)]
    for i, d in enumerate(diag):
        if not d > 0:
            raise RuntimeError(f"{sys.label}: non-positive norm at level {i}")
    norms = [math.sqrt(d) for d in diag]
    g = [[1.0 if i == j else raw[min(i, j), max(i, j)] / (norms[i] * norms[j])
          for j in range(N)] for i in range(N)]
    max_off = max(abs(g[i][j]) for i, j in pairs if i != j)
    return GramReport(size=N, matrix=tuple(map(tuple, g)), max_offdiag=max_off)
