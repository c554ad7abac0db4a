"""Independent derivations, used as cross-check oracles: family
polynomials for ``systems.exceptional_poly`` and the eigen-equation
substitution for ``XSystem.residual_operator``, with the quasi-polynomial
calculus that substitution runs on, plain Sturm-count bisection for
``spectral.eigen_lowest``, polynomials exact at a float node (``exact_at``)
and 40-digit mpmath wave functions and potentials for the float evaluators,
and for ``quadrature.gram`` a fixed-level reference of exact node values
(``gram_reference``), one adaptive tanh-sinh integration per integral
(``integrate``, ``inner_product``) and the half-line rule derived on its
own (``half_line_points``); no library code calls them.

A quasi-polynomial is

    e^(s*eta) * eta^a * (1-eta)^b * (1+eta)^c * B(eta)

with a polynomial body B; the form stays closed under differentiation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

from exopoly.classical import jacobi
from exopoly.polycore import ETA, ONE, Interval, Poly, rat
from exopoly.quadrature import _ETA_CAP, _MAX_NODES, _RTOL, QuadratureConvergenceError, _phi, _ts_points
from exopoly.systems import XSystem, energy, level_poly


class IncompatiblePrefactorError(ValueError):
    """Raised when quasi-polynomial prefactors cannot be reconciled."""


_ONE_MINUS = Poly([1, -1])
_ONE_PLUS = Poly([1, 1])


def _power_poly(base: Poly, k: int) -> Poly:
    out = ONE
    for _ in range(k):
        out = out * base
    return out


@dataclass(frozen=True)
class QuasiPoly:
    """e^(s*eta) * eta^a * (1-eta)^b * (1+eta)^c times a Poly body.

    Two quasi-polynomials add when their exponential coefficients match and
    their power exponents differ by integers; the gaps are absorbed into the
    bodies.  Differentiation lowers each power exponent by at most one.
    """

    s: Fraction
    a: Fraction
    b: Fraction
    c: Fraction
    body: Poly

    @property
    def prefactor(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.s, self.a, self.b, self.c)

    def times_poly(self, p: Poly) -> "QuasiPoly":
        return QuasiPoly(self.s, self.a, self.b, self.c, self.body * p)

    def scaled(self, k) -> "QuasiPoly":
        return QuasiPoly(self.s, self.a, self.b, self.c, self.body * rat(k))

    def __add__(self, other: "QuasiPoly") -> "QuasiPoly":
        if self.s != other.s:
            raise IncompatiblePrefactorError(
                "incompatible prefactor: exponential coefficients differ"
            )
        exps = []
        bodies = [self.body, other.body]
        for base, x, y in (
            (ETA, self.a, other.a),
            (_ONE_MINUS, self.b, other.b),
            (_ONE_PLUS, self.c, other.c),
        ):
            gap = x - y
            if gap.denominator != 1:
                raise IncompatiblePrefactorError(
                    "incompatible prefactor: non-integer exponent gap"
                )
            exps.append(min(x, y))
            k = 0 if x > y else 1  # only the body with the larger exponent absorbs the gap
            bodies[k] = bodies[k] * _power_poly(base, int(abs(gap)))
        return QuasiPoly(self.s, exps[0], exps[1], exps[2], bodies[0] + bodies[1])

    def derivative(self) -> "QuasiPoly":
        """Exact d/deta, distributing over the prefactor."""
        out = QuasiPoly(self.s, self.a, self.b, self.c,
                        self.body * self.s + self.body.derivative())
        if self.a != 0:
            out = out + QuasiPoly(self.s, self.a - 1, self.b, self.c,
                                  self.body * self.a)
        if self.b != 0:
            out = out + QuasiPoly(self.s, self.a, self.b - 1, self.c,
                                  self.body * (-self.b))
        if self.c != 0:
            out = out + QuasiPoly(self.s, self.a, self.b, self.c - 1,
                                  self.body * self.c)
        return out


def quasi_extract(q: QuasiPoly, target) -> Poly:
    """Return the Poly R with target_prefactor * R == q, exactly.

    ``target`` is a QuasiPoly (body ignored) or an (s, a, b, c) tuple.  The
    exponent gaps q - target must be nonnegative integers and the
    exponential coefficients must match.
    """
    if isinstance(target, QuasiPoly):
        ts, ta, tb, tc = target.prefactor
    else:
        ts, ta, tb, tc = (rat(v) for v in target)
    if q.s != ts:
        raise IncompatiblePrefactorError(
            "incompatible prefactor: exponential coefficients differ"
        )
    out = q.body
    for base, have, want in (
        (ETA, q.a, ta),
        (_ONE_MINUS, q.b, tb),
        (_ONE_PLUS, q.c, tc),
    ):
        gap = have - want
        if gap < 0 or gap.denominator != 1:
            raise IncompatiblePrefactorError(
                "incompatible prefactor: exponent gap not a nonnegative integer"
            )
        out = out * _power_poly(base, int(gap))
    return out


def extj_bilinear(sys: XSystem, n: int) -> Poly:
    """Pre-reduction xi/xi' bilinear form of the extj polynomial; equals
    exceptional_poly exactly."""
    a, b = sys.params.alpha, sys.params.beta
    V = jacobi(n, -a, -b)
    one_minus_sq = Poly([1, 0, -1])
    return one_minus_sq * V * sys.xi.derivative() + (
        Poly([b - a, -(a + b)]) * V - one_minus_sq * V.derivative()
    ) * sys.xi


def j2_direct(sys: XSystem, n: int) -> Poly:
    """j2 polynomial from the direct derivation with its own parameter group;
    equals (-1)^(ell+n+1) times the parity image."""
    a, b = sys.params.alpha, sys.params.beta
    U = jacobi(n, -a, b)
    return Poly([1, -1]) * U * sys.xi.derivative() \
        + (n - a) * jacobi(n, -a - 1, b + 1) * sys.xi


def substituted(sys: XSystem, P: Poly, E: Fraction) -> Poly:
    """The eigen-equation residual of P at energy E, by substitution.

    Builds p = prefactor * P, substitutes into

        eta_dot^2 p'' + (2 W0' eta_dot + eta_ddot - 2 eta_dot^2 xi'/xi) p' + E p,

    multiplies through by xi and strips the common algebraic prefactor.
    """
    p = QuasiPoly(*sys.p_prefactor, P)
    p1 = p.derivative()
    p2 = p1.derivative()
    mid = (2 * sys.Q + sys.eta_ddot) * sys.xi - 2 * sys.eta_dot2 * sys.xi.derivative()
    total = (
        p2.times_poly(sys.eta_dot2 * sys.xi)
        + p1.times_poly(mid)
        + p.times_poly(sys.xi).scaled(E)
    )
    return quasi_extract(total, total.prefactor)


# ---------------------------------------------------------------------------
# plain Sturm-count bisection: every count the bisection asks for is a pass
# ---------------------------------------------------------------------------


def bisection_count_below(diag, off2, sigma: float) -> int:
    """Eigenvalues of the tridiagonal matrix strictly below sigma, by the
    inertia of the LDL^T pivots of (T - sigma)."""
    tiny = 1e-300
    q = diag[0] - sigma
    count = 0
    for d, e2 in zip(diag[1:], off2):
        if q == 0.0:
            q = -tiny
        if q < 0.0:
            count += 1
        q = d - sigma - e2 / q
    return count + (q <= 0.0)


def bisection_lowest(op, k: int) -> list[float]:
    """The k smallest eigenvalues, ascending, by Sturm-count bisection."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 10:
        raise ValueError("only the lowest 10 levels are supported")
    n = len(op.diag)
    if k > n:
        raise ValueError("k exceeds the matrix dimension")
    diag = [float(d) for d in op.diag]
    offs = [float(e) for e in op.off]
    off2 = [e * e for e in offs]
    radius = [0.0] * n
    for i in range(n):
        r = abs(offs[i - 1]) if i else 0.0
        if i < n - 1:
            r += abs(offs[i])
        radius[i] = r
    lo0 = min(d - r for d, r in zip(diag, radius))
    hi0 = max(d + r for d, r in zip(diag, radius))
    out = []
    counts: dict[float, int] = {}  # the k bisections share their first midpoints
    for j in range(1, k + 1):
        lo, hi = lo0, hi0
        # invariant: count(lo) < j <= count(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if mid not in counts:
                counts[mid] = bisection_count_below(diag, off2, mid)
            if counts[mid] >= j:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-14 * max(1.0, abs(mid)):
                break
        out.append(0.5 * (lo + hi))
    return out


def bisection_richardson(operator, grid, k: int) -> list[float]:
    """``spectral.richardson_lowest`` with both grids solved by
    ``bisection_lowest``."""
    coarse = grid.coarse()
    fine_vals = bisection_lowest(operator(grid), k)
    coarse_vals = bisection_lowest(operator(coarse), k)
    r = ((grid.points + 1) / (coarse.points + 1)) ** 2
    return [(r * f - c) / (r - 1) for f, c in zip(fine_vals, coarse_vals)]


# ---------------------------------------------------------------------------
# float-layer references sharing no evaluation code with src/: polynomials
# exact at a float node, 40-digit mpmath, and a fixed-level Gram matrix
# ---------------------------------------------------------------------------


def exact_at(poly: Poly, x: float) -> float:
    """poly at the float node x, rounded once: a float is a dyadic rational
    p/q, so Horner over integers on p and the powers of q loses nothing."""
    p, q = float(x).as_integer_ratio()
    den, acc, qk = math.lcm(*(c.denominator for c in poly.coeffs)), 0, 1
    for c in reversed(poly.coeffs):
        acc, qk = acc * p + c.numerator * (den // c.denominator) * qk, qk * q
    return float(Fraction(acc * q, den * qk))


def _mpf(r: Fraction):
    return mpmath.mpf(r.numerator) / r.denominator


def mp_wavefunction(sys: XSystem, level: int, x):
    """The level's eigenfunction at x in mpmath's working precision, from the
    exponents w0_exponents + p_prefactor and the exact P and xi."""
    x = mpmath.mpf(x)
    s, a, b, c = (_mpf(w + p) for w, p in zip(sys.w0_exponents, sys.p_prefactor))
    if sys.case.is_laguerre:
        eta, value = x * x, mpmath.exp(s * x * x) * x ** (2 * a)
    else:
        eta, value = mpmath.cos(2 * x), (2 * mpmath.sin(x) ** 2) ** b * (2 * mpmath.cos(x) ** 2) ** c
    horner = lambda poly: mpmath.polyval([_mpf(k) for k in reversed(poly.coeffs)], eta)
    return value * horner(level_poly(sys, level)) / horner(sys.xi)


def mp_potential(sys: XSystem, x):
    """V = E0 + psi0''/psi0 at x in mpmath's working precision (mpmath.diff)."""
    psi0 = lambda t: mp_wavefunction(sys, 0, t)
    return _mpf(energy(sys, 0)) + mpmath.diff(psi0, mpmath.mpf(x), 2) / psi0(mpmath.mpf(x))


def gram_reference(sys: XSystem, N: int, level: int = 7) -> list[list[float]]:
    """Normalized Gram matrix of the lowest N levels by the tanh-sinh rule of
    one fixed level on the library's nodes (``_ts_points``), with p_n and xi
    exact at each node: a reference only where that level has converged."""
    w, polys, terms = sys.weight, [level_poly(sys, n) for n in range(N)], []
    for k in range(1, level + 1):
        for eta, d_lo, d_hi, weight in _ts_points(sys.domain_eta, k):
            log_w = float(w.s) * eta + sum(float(e) * math.log(d) for e, d
                                           in ((w.a, eta), (w.b, d_hi), (w.c, d_lo)) if e)
            factor = math.exp(0.5 * log_w) / exact_at(sys.xi, eta)  # sqrt(w) / xi
            terms.append((0.5 ** (level - k) * weight, [factor * exact_at(p, eta) for p in polys]))
    raw = [[math.fsum(wt * v[i] * v[j] for wt, v in terms) for j in range(N)] for i in range(N)]
    return [[raw[i][j] / math.sqrt(raw[i][i] * raw[j][j]) for j in range(N)] for i in range(N)]


def seed_flipped_coeff(monkeypatch, poly: Poly) -> None:
    """The defect each accuracy test must catch: ``Poly.float_values`` of poly,
    and of no other polynomial, evaluates poly with the sign of its lowest
    nonzero term flipped."""
    cs, float_values = list(poly.coeffs), Poly.float_values
    k = next(i for i, c in enumerate(cs) if c)
    cs[k] = -cs[k]
    flipped = Poly(cs)
    monkeypatch.setattr(Poly, "float_values",
                        lambda p, etas: float_values(flipped if p == poly else p, etas))


# ---------------------------------------------------------------------------
# one adaptive tanh-sinh integration per integral, on the library's rule
# (_ts_points, _phi): the per-pair reference for quadrature.gram.  One
# integral has no diagonal to scale it, so this one stops on the integral of
# |f|, where gram puts the tolerance on the normalized entry
# ---------------------------------------------------------------------------


def integrate(f: Callable, domain: Interval, rtol: float = _RTOL) -> float:
    """Adaptive tanh-sinh integral over a domain with a finite lower bound.
    The integrand is vectorized and called as f(eta, d_lo, d_hi), with the
    nodes and their distances from the lower and the upper end as numpy
    arrays, so a factor singular at an end can be taken from the distance.
    Level by level until the estimate changes by at most
    rtol * max(|I|, integral of |f|); raises QuadratureConvergenceError with
    the best estimate at the node cap."""
    import numpy as np
    if math.isinf(float(domain.lo)):
        raise ValueError(f"tanh-sinh needs a finite lower bound, not the domain {domain}")
    prev, n_nodes, level = None, 0, 1
    total = total_abs = 0.0
    while True:
        nodes, d_lo, d_hi, weights = np.array(list(_ts_points(domain, level))).T
        vals = np.asarray(f(nodes, d_lo, d_hi), dtype=float)
        total = 0.5 * total + float(np.dot(weights, vals))
        total_abs = 0.5 * total_abs + float(np.dot(weights, np.abs(vals)))
        n_nodes += len(nodes)
        if prev is not None:
            change = abs(total - prev)
            scale = max(abs(total), total_abs)
            if change <= rtol * scale or scale == change == 0.0:
                return total
            if n_nodes >= _MAX_NODES:
                raise QuadratureConvergenceError(
                    "integration non-convergence at requested tolerance",
                    achieved=total, last_change=change, nodes=n_nodes)
        prev = total
        level += 1


def inner_product(sys: XSystem, n: int, m: int, rtol: float = _RTOL) -> float:
    """<p_n, p_m> under the system's orthogonality weight (level-indexed)."""
    import numpy as np
    polys = [level_poly(sys, n), level_poly(sys, m)]
    return integrate(lambda *pts: np.prod(_phi(sys, polys, *(p.tolist() for p in pts)), axis=0),
                     sys.domain_eta, rtol=rtol)


# ---------------------------------------------------------------------------
# the half-line tanh-sinh rule derived on its own: the node-by-node reference
# for quadrature._ts_points on (lo, inf)
# ---------------------------------------------------------------------------


def half_line_points(lo: float, level: int):
    """Yield (eta, d_lo, d_hi, weight) for each node of one tanh-sinh
    refinement step on (lo, inf), derived on t in (0, 1) directly: at each
    abscissa u = k h, t = d and t = 1 - d for the distance d of t from the
    nearer end, mapped by eta = t / (1 - t) with the Jacobian 1 / (1 - t)^2,
    the nodes beyond quadrature._ETA_CAP dropped."""
    h = 2.0 ** (-level)
    if level == 1:
        yield lo + 1.0, 1.0, math.inf, 0.5 * (0.5 * math.pi) * h * 4.0  # t = 1/2
    for k in range(1, int(4.0 / h) + 1, 1 if level == 1 else 2):
        u = k * h
        z = 0.5 * math.pi * math.sinh(u)
        delta = 2.0 / (math.exp(2 * z) + 1.0)  # 1 - tanh(z), cancellation-free
        w = 0.5 * math.pi * math.cosh(u) / math.cosh(z) ** 2 * h
        d = 0.5 * delta
        if d > 0.0:
            for eta, jac in ((d / (1.0 - d), 1.0 / (1.0 - d) ** 2), ((1.0 - d) / d, 1.0 / (d * d))):
                if 0.0 < eta < _ETA_CAP:
                    yield lo + eta, eta, math.inf, 0.5 * w * jac
