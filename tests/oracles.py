"""Independent derivations, used as cross-check oracles: family
polynomials for ``systems.exceptional_poly`` and the eigen-equation
substitution for ``XSystem.residual_operator``, with the quasi-polynomial
calculus that substitution runs on, plain Sturm-count bisection for
``spectral.eigen_lowest``, numpy array evaluation for
``systems.potential_eval`` and ``systems.wavefunction_eval``, and for
``quadrature.gram`` both its former numpy form (``numpy_gram``) and one
adaptive tanh-sinh integration per integral (``integrate``,
``inner_product``); no library code calls them.

A quasi-polynomial is

    e^(s*eta) * eta^a * (1-eta)^b * (1+eta)^c * B(eta)

with a polynomial body B; the form stays closed under differentiation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from exopoly.classical import jacobi
from exopoly.polycore import ETA, ONE, Interval, Poly, rat
from exopoly.quadrature import (
    _ETA_CAP, _MAX_NODES, _RTOL, GramReport, QuadratureConvergenceError, _phi, _ts_points,
)
from exopoly.systems import XSystem, level_poly


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
# potentials and wave functions over numpy arrays: the float evaluators as
# they were before they moved to plain Python floats, kept verbatim apart
# from the names and from XSystem.eta_of_x, now the function _np_eta_of_x
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)


def _np_eta_of_x(sys: XSystem, x):
    return x * x if sys.case.is_laguerre else _np_per_node(math.cos, 2 * x)


def _np_per_node(f: Callable[[float], float], t):
    """f node by node, so exp, pow, sin and cos come from libm: numpy's own
    differ from it in the last ulp on some nodes, and printed values must not."""
    import numpy as np
    return np.fromiter(map(f, t.tolist()), float, len(t))


def _np_horner(coeffs: list[float], eta):
    """Float Horner evaluation of ascending coefficients, as acc * eta + c."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * eta + c
    return acc


def _np_interior(sys: XSystem, x):
    """x as a 1-d float array, every node inside the open physical domain."""
    import numpy as np
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = float(sys.domain_x.lo), float(sys.domain_x.hi)
    bad = np.flatnonzero(~((lo < xs) & (xs < hi)))
    if bad.size:
        raise ValueError(f"x={float(xs[bad[0]])} outside the open physical domain ({lo}, {hi})")
    return xs


def _np_v0(sys: XSystem, x):
    """The undeformed part W0'^2 + W0'' of the potential, over an array."""
    a = sys.params.alpha
    g = float((a + _HALF) * (a + Fraction(3, 2)))
    if sys.case.is_laguerre:
        return x * x + g / (x * x) - 2 * sys.c2_sign * float(a)
    b = sys.params.beta
    h = float((b + _HALF) * (b + Fraction(3, 2)))
    s, c = _np_per_node(math.sin, x), _np_per_node(math.cos, x)
    return g / (s * s) + h / (c * c) - float(a + b + 1) ** 2


def numpy_potential_eval(sys: XSystem, x):
    """V(x) from the prepotential and deforming function; x is a float or a
    1-d array of points, and the result takes the same form."""
    import numpy as np
    xs = _np_interior(sys, x)
    eta = _np_eta_of_x(sys, xs)
    xi, dxi, dot2, q, ddot, c1 = (
        _np_horner(p.float_coeffs(), eta)
        for p in (sys.xi, sys.xi.derivative(), sys.eta_dot2, sys.Q, sys.eta_ddot, sys.c1)
    )
    sgn = sys.c2_sign
    # a node too near a wall gives inf or nan, silently: tridiag_from_potential names it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = dxi / xi
        v = _np_v0(sys, xs) + r * (2 * dot2 * r - (2 * q + ddot) + sgn * c1) + sgn * float(sys.xi_tilde_E)
    return v if np.ndim(x) else float(v[0])


def numpy_wavefunction_eval(sys: XSystem, level: int, x):
    """Unnormalized eigenfunction of the given level; x is a float or a 1-d
    array of points, and the result takes the same form."""
    import numpy as np
    xs = _np_interior(sys, x)
    P = level_poly(sys, level)
    s, a, b, c = (w + p for w, p in zip(sys.w0_exponents, sys.p_prefactor))  # e^W0 * prefactor
    if sys.case.is_laguerre:
        exp_coeff = float(s)       # coefficient of eta = x^2 in the exponent
        x_power = float(2 * a)     # eta^k = x^(2k)
        value = _np_per_node(lambda t: math.exp(exp_coeff * (t * t)) * t ** x_power, xs)
    else:  # 1 - eta = 2 sin^2 x, 1 + eta = 2 cos^2 x
        u, v = float(b), float(c)
        value = _np_per_node(lambda t: (2 * math.sin(t) ** 2) ** u * (2 * math.cos(t) ** 2) ** v, xs)
    eta = _np_eta_of_x(sys, xs)
    psi = value * _np_horner(P.float_coeffs(), eta) / _np_horner(sys.xi.float_coeffs(), eta)
    return psi if np.ndim(x) else float(psi[0])


# ---------------------------------------------------------------------------
# the Gram matrix over numpy arrays: quadrature.gram as it was before it moved
# to plain Python floats, the same code apart from names and docstrings; it
# drops the nodes that round onto a finite end, so it is a reference only
# where the weight vanishes at the ends (the REPRESENTATIVE points)
# ---------------------------------------------------------------------------

_NP_BLOCK = 2048  # nodes per evaluation block: bounds the Phi array


def _np_ts_points(domain: Interval, level: int):
    """Nodes/weights for one tanh-sinh refinement step on a domain with a
    finite lower bound, over numpy arrays."""
    import numpy as np
    lo, hi = float(domain.lo), float(domain.hi)
    h = 2.0 ** (-level)
    u = np.arange(1, int(4.0 / h) + 1, 1 if level == 1 else 2) * h
    z = 0.5 * math.pi * np.sinh(u)
    # 1 - tanh(z) = 2 / (e^(2z) + 1), cancellation-free
    delta = 2.0 / (np.exp(2 * z) + 1.0)
    w = 0.5 * math.pi * np.cosh(u) / np.cosh(z) ** 2 * h
    keep = delta > 0.0
    delta, w = delta[keep], w[keep]
    if math.isinf(hi):
        # t runs over (0, 1); eta = t/(1-t) maps onto (0, inf), shifted by lo
        d = 0.5 * delta  # distance of t from the nearer endpoint
        nodes_list, weights_list = [], []
        if level == 1:
            nodes_list.append(np.array([lo + 1.0]))  # t = 1/2
            weights_list.append(np.array([0.5 * (0.5 * math.pi) * h * 4.0]))
        eta_lo = d / (1.0 - d)           # t = d
        jac_lo = 1.0 / (1.0 - d) ** 2
        eta_hi = (1.0 - d) / d           # t = 1 - d, evaluated cancellation-free
        jac_hi = 1.0 / (d * d)
        for eta, jac in ((eta_lo, jac_lo), (eta_hi, jac_hi)):
            keep = (eta > 0.0) & (eta < _ETA_CAP) & np.isfinite(jac)
            nodes_list.append(lo + eta[keep])
            weights_list.append(0.5 * w[keep] * jac[keep])
        return np.concatenate(nodes_list), np.concatenate(weights_list)
    half = 0.5 * (hi - lo)
    xs_lo = lo + half * delta
    xs_hi = hi - half * delta
    keep = (xs_lo > lo) & (xs_hi < hi)
    nodes = [xs_lo[keep], xs_hi[keep]]
    weights = [half * w[keep], half * w[keep]]
    if level == 1:
        nodes.append(np.array([0.5 * (hi + lo)]))
        weights.append(np.array([half * (0.5 * math.pi) * h]))
    return np.concatenate(nodes), np.concatenate(weights)


def _np_phi(sys: XSystem, polys: list[Poly]):
    """Phi[n](eta) = sqrt(w) p_n / xi, one row per polynomial, for an array of
    nodes, in log space; endpoint factors by log1p of the node."""
    import numpy as np
    w = sys.weight
    s, a, b, c = float(w.s), float(w.a), float(w.b), float(w.c)
    coeffs, cxi = [p.float_coeffs() for p in polys], sys.xi.float_coeffs()

    def phi(eta):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_w = s * eta
            if a:
                log_w = log_w + a * np.log(eta)
            if b:
                log_w = log_w + b * np.log1p(-eta)
            if c:
                log_w = log_w + c * np.log1p(eta)
            vals = np.array([_np_horner(cs, eta) for cs in coeffs])
            log_half = 0.5 * log_w - np.log(np.abs(_np_horner(cxi, eta)))
            out = np.sign(vals) * np.exp(log_half + np.log(np.abs(vals)))
        return np.nan_to_num(out, nan=0.0, posinf=np.inf, neginf=-np.inf)

    return phi


def numpy_gram(sys: XSystem, N: int) -> GramReport:
    """``quadrature.gram`` over numpy arrays, with einsum block products."""
    import numpy as np
    if N < 2:
        raise ValueError(f"{sys.label}: need at least two levels")
    phi = _np_phi(sys, [level_poly(sys, n) for n in range(N)])
    prev, n_nodes, level = None, 0, 1
    total = total_abs = 0.0
    while True:
        nodes, weights = _np_ts_points(sys.domain_eta, level)
        sums, abs_sums = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(0, len(nodes), _NP_BLOCK):
                v = phi(nodes[k:k + _NP_BLOCK])
                vw = v * weights[k:k + _NP_BLOCK]
                sums.append(np.einsum("ik,jk->ij", vw, v))
                abs_sums.append(np.einsum("ik,jk->ij", np.abs(vw), np.abs(v)))
                del v, vw
            total = 0.5 * total + sum(sums)
            total_abs = 0.5 * total_abs + sum(abs_sums)
        n_nodes += len(nodes)
        if not np.isfinite(total_abs).all():
            raise OverflowError(f"{sys.label}: Gram entries beyond the float range "
                                f"at tanh-sinh level {level}")
        if prev is not None:
            change = np.abs(total - prev)
            scale = np.maximum(np.abs(total), total_abs)
            done = (change <= _RTOL * scale) | ((scale == 0.0) & (change == 0.0))
            if done.all():
                break
            if n_nodes >= _MAX_NODES:
                i, j = np.unravel_index(np.argmin(done), done.shape)
                raise QuadratureConvergenceError(
                    f"{sys.label}, pair ({i}, {j}): integration non-convergence at requested tolerance",
                    achieved=float(total[i, j]), last_change=float(change[i, j]), nodes=n_nodes,
                )
        prev = total
        level += 1
    raw = np.triu(total) + np.triu(total, 1).T
    positive = np.diag(raw) > 0
    if not positive.all():
        raise RuntimeError(f"{sys.label}: non-positive norm at level {np.argmin(positive)}")
    norms = np.sqrt(np.diag(raw))
    g = raw / np.outer(norms, norms)
    np.fill_diagonal(g, 1.0)
    max_off = float(np.max(np.abs(g - np.eye(N))))
    return GramReport(size=N, matrix=tuple(map(tuple, g.tolist())), max_offdiag=max_off)


# ---------------------------------------------------------------------------
# one adaptive tanh-sinh integration per integral, on the library's rule
# (_ts_points, _phi) and criterion: the per-pair reference for quadrature.gram
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
    phi = _phi(sys, [level_poly(sys, n), level_poly(sys, m)])
    return integrate(lambda *pts: np.prod(phi(*(p.tolist() for p in pts)), axis=0),
                     sys.domain_eta, rtol=rtol)
