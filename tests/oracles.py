"""Independent exact derivations, used as cross-check oracles: family
polynomials for ``systems.exceptional_poly`` and the eigen-equation
substitution for ``XSystem.residual_operator``; no library code calls them."""

from fractions import Fraction

from exopoly.classical import jacobi
from exopoly.polycore import Poly, QuasiPoly, quasi_extract
from exopoly.systems import XSystem


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
