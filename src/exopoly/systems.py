"""The five rationally extended solvable systems.

Each system lives on a sinusoidal coordinate (eta = x^2 on the half line, or
eta = cos 2x on (0, pi/2)) and is specified by a polynomial deforming
function xi(eta), a zeroth-order prepotential W0(x), and a family of
eigenpolynomials.  The wave functions are e^W0 / xi times a prefactored
polynomial, the potential follows from W0 and xi alone, and the energies are
exact rationals.

Cases
-----
l2, l1   deformed radial oscillators; xi is a Laguerre polynomial of eta
         (l2) or of -eta (l1), distinguished by the sign choice in the
         second-order coefficient of the xi-equation.
j1, j2   deformed trigonometric systems on (0, pi/2); xi is a Jacobi
         polynomial; j2 is the mirror image (eta -> -eta, alpha <-> beta)
         of j1.
extj     rationally extended system on (0, pi/2) whose polynomial family
         starts at degree ell+1 above a constant ground level with E = 0.

Everything symbolic is exact; floats only appear when a potential or wave
function is evaluated at numeric points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Any, Callable, Optional

from .classical import TheoremHypothesisError, jacobi, laguerre, nodeless_condition
from .polycore import ETA, Interval, ONE, POS_INF, Poly, rat, sturm_count

__all__ = [
    "Case",
    "Params",
    "ParameterError",
    "NodelessnessError",
    "ConstructionError",
    "Prepotential",
    "WeightExponents",
    "XSystem",
    "build_system",
    "energy",
    "family_energy",
    "exceptional_poly",
    "shifted_form_poly",
    "level_poly",
    "level_count_offset",
    "proportionality",
    "ode_residual",
    "xi_equation_residual",
    "potential_eval",
    "wavefunction_eval",
]


#: a float numpy array in annotations, which must not name numpy (see the float section)
Array = Any


class Case(str, Enum):
    L1 = "l1"
    L2 = "l2"
    J1 = "j1"
    J2 = "j2"
    EXTJ = "extj"

    @property
    def is_laguerre(self) -> bool:
        return self in (Case.L1, Case.L2)


@dataclass(frozen=True)
class Params:
    ell: int
    alpha: Fraction
    beta: Optional[Fraction] = None

    def __post_init__(self):
        if self.ell < 0:
            raise ParameterError("parameter constraint violated: ell must be >= 0")
        object.__setattr__(self, "alpha", rat(self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", rat(self.beta))


class ParameterError(ValueError):
    """Admissibility violation; message starts 'parameter constraint violated'."""


class NodelessnessError(RuntimeError):
    """The deforming function has a zero in the physical domain."""


class ConstructionError(RuntimeError):
    """An internal exactness check failed; indicates a construction bug."""


@dataclass(frozen=True)
class Prepotential:
    """Zeroth-order prepotential W0.

    laguerre_like: W0(x) = quad_sign * x^2/2 - (alpha + 1/2) ln x
    jacobi_like:   W0(x) = -(alpha + 1/2) ln sin x - (beta + 1/2) ln cos x
    """

    kind: str
    alpha: Fraction
    beta: Optional[Fraction] = None
    quad_sign: Optional[int] = None

    def v0(self, x: Array) -> Array:
        """The undeformed part W0'^2 + W0'' of the potential, over an array."""
        a = self.alpha
        g = float((a + Fraction(1, 2)) * (a + Fraction(3, 2)))
        if self.kind == "laguerre_like":
            return x * x + g / (x * x) - 2 * self.quad_sign * float(a)
        b = self.beta
        h = float((b + Fraction(1, 2)) * (b + Fraction(3, 2)))
        s, c = _per_node(math.sin, x), _per_node(math.cos, x)
        return g / (s * s) + h / (c * c) - float(a + b + 1) ** 2

    def exp_w0_eta_exponents(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Exponents (s, a, b, c) of e^W0 as e^(s eta) eta^a (1-eta)^b (1+eta)^c."""
        half = Fraction(1, 2)
        if self.kind == "laguerre_like":
            return (Fraction(self.quad_sign, 2), -(self.alpha + half) / 2,
                    Fraction(0), Fraction(0))
        return (Fraction(0), Fraction(0),
                -(self.alpha + half) / 2, -(self.beta + half) / 2)


@dataclass(frozen=True)
class WeightExponents:
    """Orthogonality weight e^(s eta) eta^a (1-eta)^b (1+eta)^c / xi^2."""

    s: Fraction
    a: Fraction
    b: Fraction
    c: Fraction


@dataclass(frozen=True)
class XSystem:
    case: Case
    params: Params
    xi: Poly
    xi_tilde_E: Fraction
    w0: Prepotential
    Q: Poly
    c1: Poly
    c2: Poly
    c2_sign: int
    eta_dot2: Poly
    eta_ddot: Poly
    domain_x: Interval
    domain_eta: Interval
    weight: WeightExponents
    p_prefactor: tuple[Fraction, Fraction, Fraction, Fraction]
    notes: tuple[str, ...] = ()

    def eta_of_x(self, x: Array) -> Array:
        return x * x if self.case.is_laguerre else _per_node(math.cos, 2 * x)

    @cached_property
    def _family(self) -> dict[int, Poly]:
        """P_n by n, filled by exceptional_poly and freed with the system."""
        return {}

    @property
    def label(self) -> str:
        """'case l2 (ell=1, alpha=-2, beta=None)': how error messages name the system."""
        p = self.params
        return f"case {self.case.value} (ell={p.ell}, alpha={p.alpha}, beta={p.beta})"

    @cached_property
    def residual_operator(self) -> tuple[Poly, Poly, Poly, Poly]:
        """(A, B, C, D) with ode_residual = A P'' + B P' + (C + E D) P.

        For p = prefactor * P and g = prefactor'/prefactor, the equation
        eta_dot^2 xi p'' + mid p' + E xi p is the prefactor times
        eta_dot^2 xi (P'' + 2g P' + (g' + g^2) P) + mid (P' + g P) + E xi P,
        taken times m^2 (m: the prefactor's factors of nonzero exponent).
        At exponent 1 the double poles of g' and g^2 cancel, so that factor
        is divided out once: the prefactor's lowest power is what is left.
        """
        s, *exps = self.p_prefactor
        factors = [(e, f) for e, f in zip(exps, (ETA, Poly([1, -1]), Poly([1, 1]))) if e]
        m, G, m2g1 = ONE, Poly([s]), Poly()  # G = m g and m2g1 = m^2 g', factor by factor
        for e, f in factors:  # f' = +-1, so (e f'/f)' = -e/f^2
            G = G * f + e * f.derivative() * m
            m2g1 = m2g1 * f * f - e * m * m
            m = m * f
        xi = self.xi
        top = self.eta_dot2 * xi
        mid = (2 * self.Q + self.eta_ddot) * xi - 2 * self.eta_dot2 * xi.derivative()
        mm = m * m
        ops = (mm * top, 2 * m * G * top + mm * mid,
               (m2g1 + G * G) * top + m * G * mid, mm * xi)
        for e, f in factors:
            if e == 1:
                ops = tuple(X // f for X in ops)
        return ops


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(f"parameter constraint violated: {message}")


def xi_equation_residual(c2: Poly, c1: Poly, xi: Poly, xi_tilde_E: Fraction) -> Poly:
    """c2 xi'' + c1 xi' + xi_tilde_E xi: the deforming-function equation,
    the zero polynomial for a correctly built system."""
    return c2 * xi.derivative().derivative() + c1 * xi.derivative() + xi_tilde_E * xi


def build_system(case: Case, params: Params) -> XSystem:
    """Build and exactly verify one solvable system.

    Raises ParameterError when the printed admissibility inequalities fail
    and NodelessnessError when the (authoritative) Sturm check finds a zero
    of xi inside the physical domain or at one of its finite endpoints.
    """
    case = Case(case)
    ell, a, b = params.ell, params.alpha, params.beta
    notes: list[str] = []

    if case.is_laguerre:
        _require(b is None, f"case {case.value} takes no beta")
        eta_dot2 = Poly([0, 4])
        eta_ddot = Poly([2])
        domain_eta = Interval(Fraction(0), POS_INF)
        domain_x = Interval(Fraction(0), POS_INF)
        if case is Case.L2:
            _require(a < -ell, f"alpha < -ell (case l2; got alpha={a}, ell={ell})")
            c2_sign = 1
            Q = Poly([-2 * a - 1, 2])
            xi = laguerre(ell, a)
            prep = Prepotential("laguerre_like", a, quad_sign=+1)
            p_prefactor = (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))
            weight = WeightExponents(Fraction(-1), -(a + 1), Fraction(0), Fraction(0))
        else:  # L1
            _require(a > Fraction(-3, 2),
                     f"alpha > -3/2 (case l1; got alpha={a})")
            if a <= -1:
                notes.append(
                    "alpha in (-3/2, -1]: the printed normalizability bound admits "
                    "this zone but nodelessness does not follow from it; admission "
                    "rests on the exact zero-count check"
                )
            c2_sign = -1
            Q = Poly([-2 * a - 1, -2])
            xi = laguerre(ell, a).compose_neg()
            prep = Prepotential("laguerre_like", a, quad_sign=-1)
            p_prefactor = (Fraction(0), a + 1, Fraction(0), Fraction(0))
            weight = WeightExponents(Fraction(-1), a + 1, Fraction(0), Fraction(0))
        xi_tilde_E = Fraction(4 * ell)
    else:
        _require(b is not None, f"case {case.value} needs beta")
        eta_dot2 = Poly([4, 0, -4])
        eta_ddot = Poly([0, -4])
        domain_eta = Interval(Fraction(-1), Fraction(1))
        domain_x = Interval(Fraction(0), math.pi / 2)
        c2_sign = 1
        if case is Case.J1:
            _require(a > -_HALF, f"alpha > -1/2 (case j1; got alpha={a})")
            _require(b < -ell, f"beta < -ell (case j1; got beta={b}, ell={ell})")
            p_prefactor = (Fraction(0), Fraction(0), a + 1, Fraction(0))
            weight = WeightExponents(Fraction(0), Fraction(0), a + 1, -(b + 1))
        elif case is Case.J2:
            _require(b > -_HALF, f"beta > -1/2 (case j2; got beta={b})")
            _require(a < -ell, f"alpha < -ell (case j2; got alpha={a}, ell={ell})")
            p_prefactor = (Fraction(0), Fraction(0), Fraction(0), b + 1)
            weight = WeightExponents(Fraction(0), Fraction(0), -(a + 1), b + 1)
        else:  # EXTJ
            _require(a < -_HALF, f"alpha < -1/2 (case extj; got alpha={a})")
            _require(b < -_HALF, f"beta < -1/2 (case extj; got beta={b})")
            _require(a + b < -ell,
                     f"alpha + beta < -ell (case extj; got alpha+beta={a + b}, ell={ell})")
            try:
                ok = nodeless_condition(ell, a, b)
            except TheoremHypothesisError as exc:
                raise ParameterError(
                    f"parameter constraint violated: {exc}"
                ) from exc
            _require(ok, f"nodelessness condition fails (case extj; alpha={a}, beta={b}, ell={ell})")
            p_prefactor = (Fraction(0),) * 4
            weight = WeightExponents(Fraction(0), Fraction(0), -(a + 1), -(b + 1))
        Q = Poly([2 * (a - b), 2 * (a + b + 1)])
        xi = jacobi(ell, a, b)
        prep = Prepotential("jacobi_like", a, beta=b)
        xi_tilde_E = Fraction(4) * ell * (ell + a + b + 1)

    c1 = (eta_ddot - 2 * Q) * c2_sign
    c2 = eta_dot2 * c2_sign

    # the xi-equation must hold as an exact polynomial identity
    if not xi_equation_residual(c2, c1, xi, xi_tilde_E).is_zero:
        raise ConstructionError(
            f"deforming-function equation violated for case {case.value}"
        )

    # W0 really is the integral of Q / eta_dot^2: exactly, eta_dot^2 * dW0/deta == Q
    sexp, aexp, bexp, cexp = prep.exp_w0_eta_exponents()
    dW0 = (
        sexp * eta_dot2 + aexp * Poly([4])  # 4*eta * (a/eta) = 4a
        if case.is_laguerre
        else bexp * (-1) * Poly([4, 4]) + cexp * Poly([4, -4])
    )
    # laguerre: d/deta [s eta + a ln eta] * 4 eta = 4 s eta + 4 a
    # jacobi:   d/deta [b ln(1-eta) + c ln(1+eta)] * 4 (1-eta^2)
    #           = -4 b (1+eta) + 4 c (1-eta)
    if dW0 != Q:
        raise ConstructionError(
            f"prepotential does not integrate the coordinate flow for case {case.value}"
        )

    if xi.degree() < ell:
        notes.append(
            f"degree-degenerate deforming function: deg xi = {xi.degree()} < ell = {ell}"
        )

    sys = XSystem(
        case=case, params=params, xi=xi, xi_tilde_E=xi_tilde_E, w0=prep,
        Q=Q, c1=c1, c2=c2, c2_sign=c2_sign, eta_dot2=eta_dot2, eta_ddot=eta_ddot,
        domain_x=domain_x, domain_eta=domain_eta, weight=weight,
        p_prefactor=p_prefactor, notes=tuple(notes),
    )
    # a zero on a finite endpoint counts too: the domain is closed there for this count
    closed = Interval(domain_eta.lo, domain_eta.hi, True, domain_eta.hi != POS_INF)
    if sturm_count(xi, closed) != 0:
        raise NodelessnessError(f"{sys.label}: deforming function has a zero in eta {closed}")
    _check_weight_consistency(sys)
    return sys


def _check_weight_consistency(sys: XSystem) -> None:
    # weight must equal p_prefactor^2 * e^(2 W0) / |eta_dot| over xi^2
    s, a, b, c = sys.w0.exp_w0_eta_exponents()
    s, a, b, c = 2 * s, 2 * a, 2 * b, 2 * c
    if sys.case.is_laguerre:
        a -= _HALF  # |eta_dot| = 2 sqrt(eta)
    else:
        b -= _HALF  # |eta_dot| = 2 sqrt(1-eta) sqrt(1+eta)
        c -= _HALF
    ps, pa, pb, pc = sys.p_prefactor
    got = (s + 2 * ps, a + 2 * pa, b + 2 * pb, c + 2 * pc)
    want = (sys.weight.s, sys.weight.a, sys.weight.b, sys.weight.c)
    if got != want:
        raise ConstructionError(
            f"orthogonality weight inconsistent with prepotential for case {sys.case.value}"
        )


# ---------------------------------------------------------------------------
# energies and polynomial families
# ---------------------------------------------------------------------------


def family_energy(sys: XSystem, n: int) -> Fraction:
    """Eigenvalue attached to the n-th member of the polynomial family."""
    if n < 0:
        raise ValueError("family index must be nonnegative")
    ell, a, b = sys.params.ell, sys.params.alpha, sys.params.beta
    if sys.case is Case.L2:
        return 4 * (n - a - ell)
    if sys.case is Case.L1:
        return 4 * (n + a + ell + 1)
    if sys.case is Case.J1:
        return 4 * (n * (n + a - b + 1) - ell * (ell + a + b + 1) - b * (a + 1))
    if sys.case is Case.J2:
        return 4 * (n * (n + b - a + 1) - ell * (ell + a + b + 1) - a * (b + 1))
    return 4 * (n * (n - a - b + 1) - ell * (ell + a + b + 1) - a - b)


def level_count_offset(sys: XSystem) -> int:
    """1 for the extended Jacobi case (constant ground level below the
    polynomial family), else 0."""
    return 1 if sys.case is Case.EXTJ else 0


def energy(sys: XSystem, level: int) -> Fraction:
    """Exact eigenvalue of the given spectral level.

    Levels are counted from the ground state.  For the extended Jacobi case
    level 0 is the constant-p ground state with E = 0 and level k >= 1 maps
    to family member k-1; for every other case level n is family member n.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    off = level_count_offset(sys)
    if off and level == 0:
        return Fraction(0)
    return family_energy(sys, level - off)


def _j1_exceptional(ell: int, n: int, a: Fraction, b: Fraction) -> Poly:
    xi = jacobi(ell, a, b)
    U = jacobi(n, a, -b)
    return Poly([1, 1]) * U * xi.derivative() - (n - b) * jacobi(n, a + 1, -b - 1) * xi


def exceptional_poly(sys: XSystem, n: int) -> Poly:
    """The n-th eigenpolynomial in its frozen formula-literal normalization.

    The scalar prefactors (4, -4) of the full solution p are not folded in.
    Degrees: ell+n for l1/l2/j1/j2 (away from degree-degenerate deforming
    functions) and ell+n+1 for extj.  Each member is built once per system,
    and later calls return the same Poly.
    """
    if n < 0:
        raise ValueError("family index must be nonnegative")
    P = sys._family.get(n)
    if P is None:
        P = sys._family[n] = _exceptional(sys, n)
    return P


def _exceptional(sys: XSystem, n: int) -> Poly:
    ell, a, b = sys.params.ell, sys.params.alpha, sys.params.beta
    if sys.case is Case.L2:
        U = laguerre(n, -a)
        return ETA * U * sys.xi.derivative() + (a - n) * laguerre(n, -a - 1) * sys.xi
    if sys.case is Case.L1:
        U = laguerre(n, a)
        return U * sys.xi.derivative() + laguerre(n, a + 1) * sys.xi
    if sys.case is Case.J1:
        return _j1_exceptional(ell, n, a, b)
    if sys.case is Case.J2:
        return _j1_exceptional(ell, n, b, a).compose_neg()
    # extj: reduced bilinear form in xi at shifted and unshifted parameters
    V = jacobi(n, -a, -b)
    return (
        (ell + b) * Poly([1, -1]) * V * jacobi(ell, a + 1, b - 1)
        + (n - a) * Poly([1, 1]) * jacobi(n, -a - 1, -b + 1) * sys.xi
    )


def shifted_form_poly(sys: XSystem, n: int) -> Poly:
    """Bilinear form in the parameter-shifted deforming function.

    Defined for the four exceptional families (l1, l2, j1, j2); the extended
    Jacobi polynomials are already produced in their shifted form.
    """
    if sys.params.ell < 1:
        raise ValueError("shifted bilinear form needs ell >= 1")
    ell, a, b = sys.params.ell, sys.params.alpha, sys.params.beta
    if sys.case is Case.L2:
        U = laguerre(n, -a)
        return (a + ell) * U * laguerre(ell, a - 1) - ETA * U.derivative() * sys.xi
    if sys.case is Case.L1:
        U = laguerre(n, a)
        return U * laguerre(ell, a + 1).compose_neg() - U.derivative() * sys.xi
    if sys.case is Case.J1:
        U = jacobi(n, a, -b)
        return (ell + b) * U * jacobi(ell, a + 1, b - 1) \
            - Poly([1, 1]) * U.derivative() * sys.xi
    if sys.case is Case.J2:
        U = jacobi(n, b, -a)
        mirrored = (ell + a) * U * jacobi(ell, b + 1, a - 1) \
            - Poly([1, 1]) * U.derivative() * jacobi(ell, b, a)
        return mirrored.compose_neg()
    raise ValueError("extended Jacobi polynomials have no separate shifted form")


def level_poly(sys: XSystem, level: int) -> Poly:
    """Polynomial part of the level-th eigenfunction (level 0 of extj is the
    constant function 1)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    off = level_count_offset(sys)
    if off and level == 0:
        return Poly([1])
    return exceptional_poly(sys, level - off)


def proportionality(p: Poly, q: Poly) -> Fraction:
    """The unique constant c with p == c q, if it exists."""
    if p.is_zero or q.is_zero:
        raise ValueError("not proportional: zero polynomial")
    if p.degree() != q.degree():
        raise ValueError("not proportional: degrees differ")
    c = p.leading() / q.leading()
    if p != q * c:
        raise ValueError("not proportional")
    return c


# ---------------------------------------------------------------------------
# the eigen-equation residual
# ---------------------------------------------------------------------------


def ode_residual(sys: XSystem, n: int, poly: Optional[Poly] = None) -> Poly:
    """Exact residual of the eigen-equation for family member n: the
    system's ``residual_operator`` applied to P_n at its energy, the zero
    polynomial for a correctly built system.  ``poly``, if given, stands in
    for P_n (to test the residual itself)."""
    P = exceptional_poly(sys, n) if poly is None else poly
    A, B, C, D = sys.residual_operator
    P1 = P.derivative()
    return A * P1.derivative() + B * P1 + (C + family_energy(sys, n) * D) * P


# ---------------------------------------------------------------------------
# float evaluation over arrays of points
# ---------------------------------------------------------------------------
# numpy is imported inside each float function, here and in quadrature,
# spectral and cli, so that the exact layer and its commands never load it


def _per_node(f: Callable[[float], float], t: Array) -> Array:
    """f node by node, so exp, pow, sin and cos come from libm: numpy's own
    differ from it in the last ulp on some nodes, and printed values must not."""
    import numpy as np
    return np.fromiter(map(f, t.tolist()), float, len(t))


def _horner(coeffs: list[float], eta):
    """Float Horner evaluation of ascending coefficients, as acc * eta + c."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * eta + c
    return acc


def _interior(sys: XSystem, x) -> Array:
    """x as a 1-d float array, every node inside the open physical domain."""
    import numpy as np
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = float(sys.domain_x.lo), float(sys.domain_x.hi)
    bad = np.flatnonzero(~((lo < xs) & (xs < hi)))
    if bad.size:
        raise ValueError(f"x={float(xs[bad[0]])} outside the open physical domain ({lo}, {hi})")
    return xs


def potential_eval(sys: XSystem, x):
    """V(x) from the prepotential and deforming function; x is a float or a
    1-d array of points, and the result takes the same form."""
    import numpy as np
    xs = _interior(sys, x)
    eta = sys.eta_of_x(xs)
    xi, dxi, dot2, q, ddot, c1 = (
        _horner(p.float_coeffs(), eta)
        for p in (sys.xi, sys.xi.derivative(), sys.eta_dot2, sys.Q, sys.eta_ddot, sys.c1)
    )
    sgn = sys.c2_sign
    # a node too near a wall gives inf or nan, silently: tridiag_from_potential names it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = dxi / xi
        v = sys.w0.v0(xs) + r * (2 * dot2 * r - (2 * q + ddot) + sgn * c1) + sgn * float(sys.xi_tilde_E)
    return v if np.ndim(x) else float(v[0])


def wavefunction_eval(sys: XSystem, level: int, x):
    """Unnormalized eigenfunction of the given level; x is a float or a 1-d
    array of points, and the result takes the same form."""
    import numpy as np
    xs = _interior(sys, x)
    P = level_poly(sys, level)
    ps, pa, pb, pc = sys.p_prefactor
    ws, wa, wb, wc = sys.w0.exp_w0_eta_exponents()
    if sys.case.is_laguerre:
        exp_coeff = float(ws + ps)       # coefficient of eta = x^2 in the exponent
        x_power = float(2 * (wa + pa))   # eta^k = x^(2k)
        value = _per_node(lambda t: math.exp(exp_coeff * (t * t)) * t ** x_power, xs)
    else:  # 1 - eta = 2 sin^2 x, 1 + eta = 2 cos^2 x
        u, v = float(wb + pb), float(wc + pc)
        value = _per_node(lambda t: (2 * math.sin(t) ** 2) ** u * (2 * math.cos(t) ** 2) ** v, xs)
    eta = sys.eta_of_x(xs)
    psi = value * _horner(P.float_coeffs(), eta) / _horner(sys.xi.float_coeffs(), eta)
    return psi if np.ndim(x) else float(psi[0])

