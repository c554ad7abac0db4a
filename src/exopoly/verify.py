"""Verification suites over built-in admissible parameter grids.

Each suite returns a machine-readable outcome record.  The grids below are
the canonical admissible points used everywhere (library tests and the
command-line verifier); they avoid parameter sets where the deforming
function is degree-degenerate, which are legal to build but exempt from the
degree laws.  Each suite runs one fixed grid: its sizes, seeds and
tolerances are the constants below.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional

from .classical import (
    IDENTITIES,
    binomial,
    count_zeros_exact,
    identity_residual,
    laguerre,
    predict_zero_count,
)
from .polycore import ETA, Interval, Poly, sturm_count
from .quadrature import gram
from .spectral import compare_spectrum, default_grid
from .systems import (
    Case,
    Params,
    XSystem,
    build_system,
    exceptional_poly,
    ode_residual,
    proportionality,
    shifted_form_poly,
    xi_equation_residual,
)

__all__ = [
    "VerifyOutcome",
    "SUITES",
    "MUTANTS",
    "grid_params",
    "grid_systems",
    "run_suite",
    "run_identity_suite",
    "run_xi_equation_suite",
    "run_ode_residual_suite",
    "run_shifted_form_suite",
    "run_degree_node_suite",
    "run_zero_count_suite",
    "zero_count_draws",
    "run_ortho_suite",
    "run_spectrum_suite",
]


@dataclass
class VerifyOutcome:
    suite: str
    passed: bool
    checked: int
    failures: int
    worst_defect: float
    elapsed_s: float
    details: list[str] = field(default_factory=list)


# the suites' fixed settings
_IDENTITY_DRAWS, _IDENTITY_MAX_DEGREE, _IDENTITY_SEED = 20, 10, 1
_XI_ELLS = (0, 1, 2, 3)  # the xi-equation also holds at ell = 0
_ELLS, _N_MAX = (1, 2, 3), 5  # family members 0..N_MAX at each ell
_ZERO_COUNT_POINTS, _ZERO_COUNT_SEED = 200, 7
_ORTHO_LEVELS, _ORTHO_TOL = 8, 1e-10
_SPECTRUM_LEVELS, _SPECTRUM_TOL = 5, 1e-3


def _l2_alphas(ell: int) -> list[Fraction]:
    return [Fraction(-2 * ell - 1, 2), Fraction(-3 * ell - 4, 3), Fraction(-ell - 3)]


_L1_ALPHAS = [Fraction(-1, 2), Fraction(1, 2), Fraction(7, 3)]

_EXTJ_POINTS = {
    0: [(Fraction(-3, 4), Fraction(-5, 6)), (Fraction(-5, 2), Fraction(-5, 2)),
        (Fraction(-2), Fraction(-3, 4))],
    1: [(Fraction(-2), Fraction(-3, 4)), (Fraction(-3, 4), Fraction(-2)),
        (Fraction(-7, 4), Fraction(-4, 5))],
    2: [(Fraction(-5, 2), Fraction(-5, 2)), (Fraction(-7, 4), Fraction(-7, 4)),
        (Fraction(-9, 4), Fraction(-13, 5))],
    3: [(Fraction(-7, 2), Fraction(-3, 4)), (Fraction(-4, 5), Fraction(-10, 3)),
        (Fraction(-9, 2), Fraction(-2, 3))],
}


def _j1_points(ell: int) -> list[tuple[Fraction, Fraction]]:
    return [
        (Fraction(1, 2), Fraction(-2 * ell - 1, 2)),
        (Fraction(0), Fraction(-3 * ell - 4, 3)),
        (Fraction(5, 3), Fraction(-ell - 3)),
    ]


def grid_params(case: Case, ell: int) -> list[Params]:
    """Canonical admissible parameter points for one case and degree."""
    case = Case(case)
    if case is Case.L2:
        return [Params(ell, a) for a in _l2_alphas(ell)]
    if case is Case.L1:
        return [Params(ell, a) for a in _L1_ALPHAS]
    if case is Case.J1:
        return [Params(ell, a, b) for a, b in _j1_points(ell)]
    if case is Case.J2:
        return [Params(ell, b, a) for a, b in _j1_points(ell)]
    if ell not in _EXTJ_POINTS:
        raise ValueError(f"no canonical extj parameter points for ell={ell}")
    return [Params(ell, a, b) for a, b in _EXTJ_POINTS[ell]]


def grid_systems(ells=(1, 2, 3)) -> Iterator[XSystem]:
    for ell in ells:
        for case in Case:
            for params in grid_params(case, ell):
                yield build_system(case, params)


@cache
def _grid_at(ell: int) -> tuple[XSystem, ...]:
    """The canonical systems of one degree, built once per process: the exact
    suites share each system and the family members kept on it."""
    return tuple(grid_systems((ell,)))


def _shared_grid(ells) -> Iterator[XSystem]:
    return (sys for ell in ells for sys in _grid_at(ell))


# representative points for the numeric suites (one per case)
REPRESENTATIVE = {
    Case.L2: Params(1, Fraction(-2)),
    Case.L1: Params(1, Fraction(1, 2)),
    Case.J1: Params(1, Fraction(1, 2), Fraction(-2)),
    Case.J2: Params(1, Fraction(-2), Fraction(1, 2)),
    Case.EXTJ: Params(2, Fraction(-5, 2), Fraction(-5, 2)),
}


def _random_rational(rng: random.Random, lo: int, hi: int, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _suite(name: str, checks: Iterable[tuple[str, bool, float]]) -> VerifyOutcome:
    """Run one suite's checks, each a (label, ok, defect) triple.

    The labels of failing checks become the details (the first 10 are
    kept); the worst defect is the largest one seen.
    """
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    details: list[str] = []
    for label, ok, defect in checks:
        checked += 1
        worst = max(worst, defect)
        if not ok:
            details.append(label)
    return VerifyOutcome(name, not details, checked, len(details), worst,
                         time.monotonic() - t0, details[:10])


def run_identity_suite() -> VerifyOutcome:
    """All derivative/contiguity identities, exact, over random parameters."""
    def checks():
        rng = random.Random(_IDENTITY_SEED)
        for _ in range(_IDENTITY_DRAWS):
            ell = rng.randint(1, _IDENTITY_MAX_DEGREE)
            a = _random_rational(rng, -8, 8)
            b = _random_rational(rng, -8, 8)
            for name in IDENTITIES:
                ok = identity_residual(name, ell, a, None if name.startswith("L") else b).is_zero
                yield f"{name} fails at ell={ell}, alpha={a}, beta={b}", ok, float(not ok)
    return _suite("identities", checks())


def run_xi_equation_suite() -> VerifyOutcome:
    """The deforming-function equation, exact, for every case and degree."""
    def checks():
        for sys in _shared_grid(_XI_ELLS):
            ok = xi_equation_residual(sys.c2, sys.c1, sys.xi, sys.xi_tilde_E).is_zero
            yield f"xi-equation fails: {sys.case.value} {sys.params}", ok, float(not ok)
    return _suite("xi-equation", checks())


# deliberate defects the ode-residual suite must catch (test harness mode)
MUTANTS = ("p-l2-sign-flip",)


def _mutated_poly(sys: XSystem, n: int, mutant: Optional[str]) -> Optional[Poly]:
    """P_n carrying the named defect, or None where the defect does not apply."""
    if mutant == "p-l2-sign-flip" and sys.case is Case.L2:
        # flip the sign of the xi-proportional term
        a = sys.params.alpha
        U = laguerre(n, -a)
        return ETA * U * sys.xi.derivative() - (a - n) * laguerre(n, -a - 1) * sys.xi
    return None


def run_ode_residual_suite(mutant: Optional[str] = None) -> VerifyOutcome:
    """Exact eigen-equation residuals across the grid.

    ``mutant`` (one of ``MUTANTS``) injects a deliberate defect to
    demonstrate that the suite fails loudly; production runs leave it None.
    """
    if mutant is not None and mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}; have {list(MUTANTS)}")

    def checks():
        for sys in _shared_grid(_ELLS):
            for n in range(_N_MAX + 1):
                ok = ode_residual(sys, n, _mutated_poly(sys, n, mutant)).is_zero
                yield (f"residual nonzero: {sys.case.value} ell={sys.params.ell} "
                       f"alpha={sys.params.alpha} beta={sys.params.beta} n={n}",
                       ok, float(not ok))
    return _suite("ode-residual", checks())


def run_shifted_form_suite() -> VerifyOutcome:
    """Exact proportionality between the two bilinear forms (nonzero constant)."""
    def checks():
        for sys in _shared_grid(_ELLS):
            if sys.case is Case.EXTJ:
                continue
            for n in range(_N_MAX + 1):
                why = "zero constant"
                try:
                    ok = proportionality(exceptional_poly(sys, n), shifted_form_poly(sys, n)) != 0
                except ValueError as exc:
                    ok, why = False, exc
                yield (f"forms not proportional ({why}): {sys.case.value} "
                       f"{sys.params} n={n}"), ok, float(not ok)
    return _suite("shifted-form", checks())


def run_degree_node_suite() -> VerifyOutcome:
    """deg P = ell+n (exceptional) or ell+n+1 with exactly n+1 interior
    roots (extended Jacobi), exact via Sturm counting."""
    unit = Interval(Fraction(-1), Fraction(1))

    def checks():
        for sys in _shared_grid(_ELLS):
            ell = sys.params.ell
            for n in range(_N_MAX + 1):
                P = exceptional_poly(sys, n)
                if sys.case is Case.EXTJ:
                    ok = P.degree() == ell + n + 1 and sturm_count(P, unit) == n + 1
                else:
                    ok = P.degree() == ell + n
                yield (f"degree/node law fails: {sys.case.value} {sys.params} n={n}",
                       ok, float(not ok))
    return _suite("degree-node", checks())


def zero_count_draws(seed: int) -> Iterator[tuple[str, int, Fraction, Optional[Fraction]]]:
    """Endless random (kind, n, alpha, beta) where the classical zero-count
    theorems apply; beta is None for laguerre, and for jacobi it shares
    alpha's denominator.  ``zeros --sweep`` and the zero-count suite draw
    from this one stream."""
    rng = random.Random(seed)

    def rational(den: int) -> Fraction:
        return Fraction(rng.randint(-10 * den, 6 * den), den)

    while True:
        kind = rng.choice(("laguerre", "jacobi"))
        n = rng.randint(1, 8)
        den = rng.randint(1, 6)
        a = rational(den)
        if kind == "laguerre":
            if not (a.denominator == 1 and -n <= a <= -1):
                yield kind, n, a, None
        else:
            b = rational(den)
            if binomial(n + a, n) * binomial(n + b, n) != 0:
                yield kind, n, a, b


def run_zero_count_suite() -> VerifyOutcome:
    """Classical zero-count predictions vs exact Sturm counts on random
    admissible parameters; the ambiguous middle branch is oracle-only and
    therefore excluded here."""
    def checks():
        for kind, n, a, b in zero_count_draws(_ZERO_COUNT_SEED):
            pred = predict_zero_count(kind, n, a, b)
            if not pred.oracle_resolved:
                exact = count_zeros_exact(kind, n, a, b)
                ok = pred.count == exact
                yield (f"{kind} n={n} alpha={a}: predicted {pred.count}, exact {exact}",
                       ok, float(not ok))
    return _suite("zero-count", islice(checks(), _ZERO_COUNT_POINTS))


def run_ortho_suite() -> VerifyOutcome:
    """Normalized off-diagonal Gram entries below tolerance for every case."""
    def checks():
        for case, params in REPRESENTATIVE.items():
            worst = gram(build_system(case, params), _ORTHO_LEVELS).max_offdiag
            # fails on >= tol, as `exopoly ortho` and `exopoly spectrum` do
            yield f"{case.value}: max off-diagonal {worst:.3e}", not worst >= _ORTHO_TOL, worst
    return _suite("orthogonality", checks())


def run_spectrum_suite() -> VerifyOutcome:
    """Finite-difference spectra against the closed forms for every case."""
    def checks():
        for case, params in REPRESENTATIVE.items():
            sys = build_system(case, params)
            worst = compare_spectrum(sys, _SPECTRUM_LEVELS, default_grid(sys)).max_error
            ok = not worst >= _SPECTRUM_TOL
            yield f"{case.value}: max eigenvalue error {worst:.3e}", ok, worst
    return _suite("spectrum", checks())


SUITES = {
    "identities": run_identity_suite,
    "xi-equation": run_xi_equation_suite,
    "ode-residual": run_ode_residual_suite,
    "shifted-form": run_shifted_form_suite,
    "degree-node": run_degree_node_suite,
    "zero-count": run_zero_count_suite,
    "orthogonality": run_ortho_suite,
    "spectrum": run_spectrum_suite,
}


def run_suite(name: str, mutant: Optional[str] = None) -> VerifyOutcome:
    """Run one suite on its fixed grid; ``mutant`` (one of ``MUTANTS``) is a
    defect injected into the ode-residual suite, the only one that takes it."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    if mutant is not None and name != "ode-residual":
        raise ValueError(f"only the ode-residual suite takes a mutant, not {name!r}")
    return SUITES[name]() if mutant is None else run_ode_residual_suite(mutant)
