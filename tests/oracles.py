"""Independent exact derivations of family polynomials, used as cross-check
oracles for ``systems.exceptional_poly``; no library code calls them."""

from exopoly.classical import jacobi
from exopoly.polycore import Poly
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
