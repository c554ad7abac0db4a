"""The five rationally extended solvable systems.

Each system lives on a sinusoidal coordinate (eta = x^2 on the half line, or
eta = cos 2x on (0, pi/2)).  It is stated by its case, its parameters, a
polynomial deforming function xi(eta) and an eigenfunction prefactor; Q, the
xi-equation coefficients, the potential and the orthogonality weight follow
from the exponents of the case's prepotential W0, and so do its `walls`: each
finite wall's x, the exact exponent nu of the eigenfunctions' x^nu there, and
g = nu (nu - 1) of the potential's g/x^2.  The wave functions are e^W0 / xi
times a prefactored polynomial; the energies are exact rationals, built once
per system as a polynomial in the family index n.

Cases
-----
l2, l1   deformed radial oscillators; xi is a Laguerre polynomial of eta
         (l2) or of -eta (l1), distinguished by the sign choice in the
         second-order coefficient of the xi-equation.
j1, j2   deformed trigonometric systems on (0, pi/2); xi is a Jacobi
         polynomial; j2 is j1 mirrored (eta -> -eta, alpha <-> beta), and
         its polynomials and energies come from j1's through `_as_j1`.
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
from typing import Callable, NamedTuple, Optional

from .classical import TheoremHypothesisError, _index, jacobi, laguerre, nodeless_condition
from .polycore import ETA, Interval, ONE, POS_INF, Poly, rat, rat_str, sturm_count


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
        _require(type(self.ell) is int and self.ell >= 0,  # a bool is no degree either
                 "ell must be an integer >= 0, got {!r}", self.ell)
        for name in ("alpha",) if self.beta is None else ("alpha", "beta"):
            try:
                object.__setattr__(self, name, rat(getattr(self, name)))
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                _require(False, name + " must be a rational number, got {!r}", getattr(self, name))


class ParameterError(ValueError):
    """Admissibility violation; message starts 'parameter constraint violated'."""


class NodelessnessError(RuntimeError):
    """The deforming function has a zero in the physical domain."""


class ConstructionError(RuntimeError):
    """An internal exactness check failed; indicates a construction bug."""


@dataclass(frozen=True)
class WeightExponents:
    """Orthogonality weight e^(s eta) eta^a (1-eta)^b (1+eta)^c / xi^2."""

    s: Fraction
    a: Fraction
    b: Fraction
    c: Fraction


class Wall(NamedTuple):
    """A finite wall at x: eigenfunctions vanish like d^nu at distance d, V ~ g/d^2."""
    x: float
    nu: Fraction
    g: Fraction


_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class XSystem:
    """One system as its case states it: xi and the eigenfunction prefactor,
    exponents (s, a, b, c) as in ``w0_exponents``.  The rest is derived on
    first use, from the case and its prepotential W0."""

    case: Case
    params: Params
    xi: Poly
    p_prefactor: tuple[Fraction, Fraction, Fraction, Fraction]
    notes: tuple[str, ...] = ()

    @cached_property
    def c2_sign(self) -> int:
        return -1 if self.case is Case.L1 else 1

    @cached_property
    def xi_tilde_E(self) -> Fraction:
        ell, a, b = self.params.ell, self.params.alpha, self.params.beta
        return Fraction(4 * ell) if self.case.is_laguerre else 4 * ell * (ell + a + b + 1)

    @cached_property
    def eta_dot2(self) -> Poly:
        """(d eta/dx)^2 in eta: 4 eta for eta = x^2, 4 (1 - eta^2) for eta = cos 2x."""
        return Poly([0, 4]) if self.case.is_laguerre else Poly([4, 0, -4])

    @cached_property
    def eta_ddot(self) -> Poly:
        """d^2 eta/dx^2 = (d/deta eta_dot^2) / 2."""
        return self.eta_dot2.derivative() * _HALF

    @cached_property
    def domain_eta(self) -> Interval:
        lo, hi = (Fraction(0), POS_INF) if self.case.is_laguerre else (Fraction(-1), Fraction(1))
        return Interval(lo, hi)

    @cached_property
    def w0_exponents(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Exponents (s, a, b, c) of e^W0 as e^(s eta) eta^a (1-eta)^b (1+eta)^c:
        W0 = c2_sign x^2/2 - (alpha + 1/2) ln x on the half line, and
        W0 = -(alpha + 1/2) ln sin x - (beta + 1/2) ln cos x on (0, pi/2)."""
        a, b = self.params.alpha, self.params.beta
        if self.case.is_laguerre:
            return (Fraction(self.c2_sign, 2), -(a + _HALF) / 2, Fraction(0), Fraction(0))
        return (Fraction(0), Fraction(0), -(a + _HALF) / 2, -(b + _HALF) / 2)

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        """The finite walls, from x = 0 up; nu is twice the exponent in e^W0 times the
        prefactor of eta (half line), or of 1 - eta at 0 and 1 + eta at pi/2."""
        _, a, b, c = (2 * (w + p) for w, p in zip(self.w0_exponents, self.p_prefactor))
        nus = ((0.0, a),) if self.case.is_laguerre else ((0.0, b), (math.pi / 2, c))
        return tuple(Wall(x, nu, nu * (nu - 1)) for x, nu in nus)

    @cached_property
    def Q(self) -> Poly:
        """eta_dot^2 dW0/deta, with dW0/deta = s + a/eta - b/(1-eta) + c/(1+eta);
        (s, a) vanish on (0, pi/2), (b, c) on the half line."""
        s, a, b, c = self.w0_exponents
        return s * self.eta_dot2 + Poly([4 * (a + c - b), -4 * (b + c)])

    @cached_property
    def c1(self) -> Poly:
        return (self.eta_ddot - 2 * self.Q) * self.c2_sign

    @cached_property
    def c2(self) -> Poly:
        return self.eta_dot2 * self.c2_sign

    @cached_property
    def weight(self) -> WeightExponents:
        """prefactor^2 e^(2 W0) / |eta_dot|, over xi^2: |eta_dot| is 2 sqrt(eta)
        on the half line and 2 sqrt(1-eta) sqrt(1+eta) on (0, pi/2)."""
        half = (0, _HALF, 0, 0) if self.case.is_laguerre else (0, 0, _HALF, _HALF)
        return WeightExponents(*(2 * w + 2 * p - h for w, p, h
                                 in zip(self.w0_exponents, self.p_prefactor, half)))

    @cached_property
    def _energies(self) -> Poly:
        """E_n of family member n as a polynomial in n, built once per system."""
        ell, (a, b, _) = self.params.ell, _as_j1(self)
        if self.case.is_laguerre:
            return Poly([-4 * (a + ell) if self.case is Case.L2 else 4 * (a + ell + 1), 4])
        if self.case is Case.EXTJ:
            return Poly([-self.xi_tilde_E - 4 * (a + b), 4 * (1 - a - b), 4])
        return Poly([-self.xi_tilde_E - 4 * b * (a + 1), 4 * (a - b + 1), 4])  # j1's, j2's

    @cached_property
    def _family(self) -> dict[int, Poly]:
        """P_n by n, filled by exceptional_poly and freed with the system."""
        return {}

    @property
    def label(self) -> str:
        """'case l2 (ell=1, alpha=-2, beta=None)': how error messages name the system."""
        p = self.params
        return "case {} (ell={}, alpha={}, beta={})".format(
            self.case.value, *map(_Exact, (p.ell, p.alpha, p.beta)))

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

class _Exact:
    """A value for a message that prints an int or Fraction at any length:
    CPython's str() and repr() refuse an int of more than 4,300 digits."""

    def __init__(self, value):
        self.value = value

    def __format__(self, spec: str) -> str:
        v = self.value
        return rat_str(v) if type(v) in (int, Fraction) else format(v, spec)

    def __repr__(self) -> str:
        v = self.value
        if type(v) is Fraction:
            return f"Fraction({rat_str(v.numerator)}, {rat_str(v.denominator)})"
        return rat_str(v) if type(v) is int else repr(v)


def _require(cond: bool, message: str, *values) -> None:
    """Raise ParameterError unless cond.  The message is a str.format
    template for `values`, filled only when the check fails."""
    if not cond:
        message = message.format(*map(_Exact, values))
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
        if case is Case.L2:
            _require(a < -ell, "alpha < -ell (case l2; got alpha={}, ell={})", a, ell)
            xi = laguerre(ell, a)
            p_prefactor = (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))
        else:  # L1
            _require(a > Fraction(-3, 2), "alpha > -3/2 (case l1; got alpha={})", a)
            if a <= -1:
                notes.append(
                    "alpha in (-3/2, -1]: the printed normalizability bound admits "
                    "this zone but nodelessness does not follow from it; admission "
                    "rests on the exact zero-count check"
                )
            xi = laguerre(ell, a).compose_neg()
            p_prefactor = (Fraction(0), a + 1, Fraction(0), Fraction(0))
    else:
        _require(b is not None, f"case {case.value} needs beta")
        if case is Case.J1:
            _require(a > -_HALF, "alpha > -1/2 (case j1; got alpha={})", a)
            _require(b < -ell, "beta < -ell (case j1; got beta={}, ell={})", b, ell)
            p_prefactor = (Fraction(0), Fraction(0), a + 1, Fraction(0))
        elif case is Case.J2:
            _require(b > -_HALF, "beta > -1/2 (case j2; got beta={})", b)
            _require(a < -ell, "alpha < -ell (case j2; got alpha={}, ell={})", a, ell)
            p_prefactor = (Fraction(0), Fraction(0), Fraction(0), b + 1)
        else:  # EXTJ
            _require(a < -_HALF, "alpha < -1/2 (case extj; got alpha={})", a)
            _require(b < -_HALF, "beta < -1/2 (case extj; got beta={})", b)
            _require(a + b < -ell,
                     "alpha + beta < -ell (case extj; got alpha+beta={}, ell={})", a + b, ell)
            try:
                ok, why = nodeless_condition(ell, a, b), "nodelessness condition fails"
            except TheoremHypothesisError:
                ok, why = False, "binomial sign test is zero"
            _require(ok, why + " (case extj; alpha={}, beta={}, ell={})", a, b, ell)
            p_prefactor = (Fraction(0),) * 4
        xi = jacobi(ell, a, b)

    if xi.degree() < ell:
        notes.append(
            f"degree-degenerate deforming function: deg xi = {xi.degree()} < ell = {ell}"
        )

    sys = XSystem(case=case, params=params, xi=xi, p_prefactor=p_prefactor, notes=tuple(notes))
    if not xi_equation_residual(sys.c2, sys.c1, xi, sys.xi_tilde_E).is_zero:
        raise ConstructionError(f"deforming-function equation violated for case {case.value}")
    # a zero on a finite endpoint counts too: the domain is closed there for this count
    dom = sys.domain_eta
    closed = Interval(dom.lo, dom.hi, True, dom.hi != POS_INF)
    if sturm_count(xi, closed) != 0:
        raise NodelessnessError(f"{sys.label}: deforming function has a zero in eta {closed}")
    return sys


# ---------------------------------------------------------------------------
# energies and polynomial families
# ---------------------------------------------------------------------------


def family_energy(sys: XSystem, n: int) -> Fraction:
    """Eigenvalue attached to the n-th member of the polynomial family."""
    if _index(n, "family index") < 0:
        raise ValueError("family index must be nonnegative")
    return sys._energies(n)


def family_index(sys: XSystem, level: int) -> Optional[int]:
    """The family member at a spectral level, counted from the ground state.

    For the extended Jacobi case level 0 is the constant-p ground state with
    E = 0, below the polynomial family, and None is returned for it; level
    k >= 1 maps to family member k-1.  For every other case level n is
    family member n.
    """
    if _index(level, "level", "level") < 0:
        raise ValueError("level must be nonnegative")
    if sys.case is not Case.EXTJ:
        return level
    return level - 1 if level else None


def energy(sys: XSystem, level: int) -> Fraction:
    """Exact eigenvalue of the given spectral level (see `family_index`)."""
    n = family_index(sys, level)
    return Fraction(0) if n is None else family_energy(sys, n)


def _as_j1(sys: XSystem) -> tuple[Fraction, Fraction, Callable[[Poly], Poly]]:
    """(alpha, beta) as j1's formulas take them, and the map that carries
    their polynomials back: j2 is j1 mirrored, eta -> -eta with alpha <->
    beta (Jacobi parity, DLMF 18.6.1); any other case gets its own and the identity."""
    a, b = sys.params.alpha, sys.params.beta
    return (b, a, Poly.compose_neg) if sys.case is Case.J2 else (a, b, lambda p: p)


def exceptional_poly(sys: XSystem, n: int) -> Poly:
    """The n-th eigenpolynomial in its frozen formula-literal normalization.

    The scalar prefactors (4, -4) of the full solution p are not folded in.
    Degrees: ell+n for l1/l2/j1/j2 (away from degree-degenerate deforming
    functions) and ell+n+1 for extj.  Each member is built once per system,
    and later calls return the same Poly.
    """
    if _index(n, "family index") < 0:
        raise ValueError("family index must be nonnegative")
    P = sys._family.get(n)
    if P is None:
        P = sys._family[n] = _exceptional(sys, n)
    return P


def _exceptional(sys: XSystem, n: int) -> Poly:
    ell, (a, b, back) = sys.params.ell, _as_j1(sys)
    if sys.case is Case.L2:
        U = laguerre(n, -a)
        return ETA * U * sys.xi.derivative() + (a - n) * laguerre(n, -a - 1) * sys.xi
    if sys.case is Case.L1:
        return laguerre(n, a) * sys.xi.derivative() + laguerre(n, a + 1) * sys.xi
    if sys.case is Case.EXTJ:  # reduced bilinear form in xi at shifted and unshifted parameters
        V = jacobi(n, -a, -b)
        return ((ell + b) * Poly([1, -1]) * V * jacobi(ell, a + 1, b - 1)
                + (n - a) * Poly([1, 1]) * jacobi(n, -a - 1, -b + 1) * sys.xi)
    xi, U = jacobi(ell, a, b), jacobi(n, a, -b)  # j1's, and j2's through the mirror
    return back(Poly([1, 1]) * U * xi.derivative() - (n - b) * jacobi(n, a + 1, -b - 1) * xi)


def shifted_form_poly(sys: XSystem, n: int) -> Poly:
    """Bilinear form in the parameter-shifted deforming function.

    Defined for the four exceptional families (l1, l2, j1, j2); the extended
    Jacobi polynomials are already produced in their shifted form.
    """
    if sys.params.ell < 1:
        raise ValueError("shifted bilinear form needs ell >= 1")
    if sys.case is Case.EXTJ:
        raise ValueError("extended Jacobi polynomials have no separate shifted form")
    ell, (a, b, back) = sys.params.ell, _as_j1(sys)
    if sys.case is Case.L2:
        U = laguerre(n, -a)
        return (a + ell) * U * laguerre(ell, a - 1) - ETA * U.derivative() * sys.xi
    if sys.case is Case.L1:
        U = laguerre(n, a)
        return U * laguerre(ell, a + 1).compose_neg() - U.derivative() * sys.xi
    U = jacobi(n, a, -b)  # j1's, and j2's through the mirror
    return back((ell + b) * U * jacobi(ell, a + 1, b - 1)
                - Poly([1, 1]) * U.derivative() * jacobi(ell, a, b))


def level_poly(sys: XSystem, level: int) -> Poly:
    """Polynomial part of the level-th eigenfunction (level 0 of extj is the
    constant function 1)."""
    n = family_index(sys, level)
    return Poly([1]) if n is None else exceptional_poly(sys, n)


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
# float evaluation over lists of points
# ---------------------------------------------------------------------------
# plain Python floats, node by node, so that no command loads numpy: exp,
# pow, sin and cos come from libm, and every + - * / keeps its order, so
# the printed floats stay byte-identical to tests/golden_stdout.json


def _horner_nodes(coeffs: list[float], etas: list[float]) -> list[float]:
    """Float Horner evaluation of ascending coefficients, as acc * eta + c at
    every node, one coefficient at a time over the whole list."""
    acc = [0.0] * len(etas)
    for c in reversed(coeffs):
        acc = [a * e + c for a, e in zip(acc, etas)]
    return acc


def _quotient(num, den: list[float]) -> list[float]:
    """num / den node by node (num a list or one float).  Where Python would
    raise on a zero divisor, the node gets IEEE's +-inf, or nan for 0/0 and
    nan/0: a node too near a wall is then named by tridiag_from_potential."""
    nums = num if isinstance(num, list) else [num] * len(den)
    return [a / b if b else math.copysign(math.inf, a) * math.copysign(1.0, b)
            if a == a and a else math.nan for a, b in zip(nums, den)]


def _interior(sys: XSystem, x) -> tuple[list[float], list[float], bool]:
    """x as a list of floats, every node inside the open physical domain;
    with eta at each node, and whether x was a single number."""
    try:
        xs, single = list(map(float, x)), False
    except TypeError:
        xs, single = [float(x)], True
    walls = sys.walls
    lo, hi = walls[0].x, walls[1].x if len(walls) == 2 else math.inf
    for t in xs:
        if not lo < t < hi:
            raise ValueError(f"x={t} outside the open physical domain ({lo}, {hi})")
    eta = [t * t for t in xs] if sys.case.is_laguerre else [math.cos(2 * t) for t in xs]
    return xs, eta, single


def _v0(sys: XSystem, xs: list[float], eta: list[float]) -> list[float]:
    """The undeformed part W0'^2 + W0'' of the potential, node by node: g/d^2 at a wall."""
    a, walls = sys.params.alpha, sys.walls
    g = float(walls[0].g)
    if sys.case.is_laguerre:  # eta = x^2
        shift = 2 * sys.c2_sign * float(a)
        return [u + w - shift for u, w in zip(eta, _quotient(g, eta))]
    h = float(walls[1].g)
    ss = [s * s for s in map(math.sin, xs)]
    cc = [c * c for c in map(math.cos, xs)]
    shift = float(a + sys.params.beta + 1) ** 2
    return [u + w - shift for u, w in zip(_quotient(g, ss), _quotient(h, cc))]


def potential_eval(sys: XSystem, x):
    """V(x) from the prepotential and deforming function; x is a float, or a
    sequence of floats for a list of values."""
    xs, eta, single = _interior(sys, x)
    xi, dxi, dot2, q, ddot, c1 = (
        _horner_nodes(p.float_coeffs(), eta)
        for p in (sys.xi, sys.xi.derivative(), sys.eta_dot2, sys.Q, sys.eta_ddot, sys.c1)
    )
    sgn = sys.c2_sign
    e = sgn * float(sys.xi_tilde_E)
    # a node too near a wall gives inf or nan, silently: tridiag_from_potential names it
    v = [v0 + r * (2 * d2 * r - (2 * qq + dd) + sgn * cc) + e
         for v0, r, d2, qq, dd, cc in zip(_v0(sys, xs, eta), _quotient(dxi, xi), dot2, q, ddot, c1)]
    return v[0] if single else v


def wavefunction_eval(sys: XSystem, level: int, x):
    """Unnormalized eigenfunction of the given level; x is a float, or a
    sequence of floats for a list of values."""
    xs, eta, single = _interior(sys, x)
    P = level_poly(sys, level)
    if sys.case.is_laguerre:  # e^W0 * prefactor = e^(s x^2) x^nu
        exp_coeff = float(sys.w0_exponents[0] + sys.p_prefactor[0])
        x_power = float(sys.walls[0].nu)
        value = [math.exp(exp_coeff * (t * t)) * t ** x_power for t in xs]
    else:  # (1 - eta)^(nu/2) (1 + eta)^(nu'/2): 1 - eta = 2 sin^2 x, 1 + eta = 2 cos^2 x
        u, v = (float(w.nu / 2) for w in sys.walls)
        value = [(2 * math.sin(t) ** 2) ** u * (2 * math.cos(t) ** 2) ** v for t in xs]
    top = [w * p for w, p in zip(value, _horner_nodes(P.float_coeffs(), eta))]
    psi = _quotient(top, _horner_nodes(sys.xi.float_coeffs(), eta))
    return psi[0] if single else psi
