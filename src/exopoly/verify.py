"""Verification suites over built-in admissible parameter grids.

Each suite is a generator of (label, ok, defect) checks, registered by name
in `SUITES`; `run_suite` is the one driver that runs a suite's checks and
tallies them into a machine-readable `VerifyOutcome`.  The grids below are
the canonical admissible points used everywhere (library tests and the
command-line verifier); they avoid parameter sets where the deforming
function is degree-degenerate, which are legal to build but exempt from the
degree laws.  Each suite runs one fixed grid: its sizes, seeds and
tolerances are the constants below.  The random suites draw through
`classical`: its one rational sampler `_random_rational`, and `zero_count_draws`.

`run_suites` runs several suites.  The float suites (orthogonality,
spectrum) share no state with the exact ones, so when both kinds are asked
for and two CPUs are usable, a forked child runs the float suites while the
calling process runs the exact ones; the outcomes are the same either way.
"""

from __future__ import annotations

import os
import random
import sys as _sys
import threading
import time
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from .classical import (
    IDENTITIES,
    _random_rational,
    count_zeros_exact,
    identity_residual,
    laguerre,
    zero_count_draws,
)
from .polycore import Poly, sturm_count
from .quadrature import gram
from .spectral import compare_spectrum, default_grid
from .systems import (
    Case,
    Params,
    XSystem,
    build_system,
    energy,
    exceptional_poly,
    level_poly,
    ode_residual,
    proportionality,
    shifted_form_poly,
    xi_equation_residual,
)


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


def _below(ell: int) -> tuple[Fraction, ...]:
    """The canonical points below -ell: l2's alphas, j1's betas and j2's alphas."""
    return Fraction(-2 * ell - 1, 2), Fraction(-3 * ell - 4, 3), Fraction(-ell - 3)


_J1_ALPHAS = (Fraction(1, 2), Fraction(0), Fraction(5, 3))
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


def grid_params(case: Case, ell: int) -> list[Params]:
    """Canonical admissible parameter points for one case and degree."""
    case = Case(case)
    if case is Case.L2:
        return [Params(ell, a) for a in _below(ell)]
    if case is Case.L1:
        return [Params(ell, a) for a in _L1_ALPHAS]
    if case is Case.J1:
        return [Params(ell, a, b) for a, b in zip(_J1_ALPHAS, _below(ell))]
    if case is Case.J2:
        return [Params(ell, b, a) for a, b in zip(_J1_ALPHAS, _below(ell))]
    if ell not in _EXTJ_POINTS:
        raise ValueError(f"no canonical extj parameter points for ell={ell}")
    return [Params(ell, a, b) for a, b in _EXTJ_POINTS[ell]]


@cache
def _grid_at(ell: int) -> tuple[XSystem, ...]:
    """The canonical systems of one degree, built once per process: the exact
    suites share each system and the family members kept on it."""
    return tuple(build_system(case, params) for case in Case for params in grid_params(case, ell))


def grid_systems(ells=(1, 2, 3)) -> Iterator[XSystem]:
    """The canonical systems of each degree in turn, each built once per process."""
    for ell in ells:
        yield from _grid_at(ell)


# representative points for the numeric suites (one per case)
REPRESENTATIVE = {
    Case.L2: Params(1, Fraction(-2)),
    Case.L1: Params(1, Fraction(1, 2)),
    Case.J1: Params(1, Fraction(1, 2), Fraction(-2)),
    Case.J2: Params(1, Fraction(-2), Fraction(1, 2)),
    Case.EXTJ: Params(2, Fraction(-5, 2), Fraction(-5, 2)),
}


# each suite yields its checks as (label, ok, defect) triples
Check = tuple[str, bool, float]


def _identities() -> Iterator[Check]:
    """All derivative/contiguity identities, exact, over random parameters."""
    rng = random.Random(_IDENTITY_SEED)
    for _ in range(_IDENTITY_DRAWS):
        ell = rng.randint(1, _IDENTITY_MAX_DEGREE)
        a = _random_rational(rng, -8, 8, rng.randint(1, 6))
        b = _random_rational(rng, -8, 8, rng.randint(1, 6))
        for name in IDENTITIES:
            ok = identity_residual(name, ell, a, None if name.startswith("L") else b).is_zero
            yield f"{name} fails at ell={ell}, alpha={a}, beta={b}", ok, float(not ok)


def _xi_equation() -> Iterator[Check]:
    """The deforming-function equation, exact, for every case and degree."""
    for sys in grid_systems(_XI_ELLS):
        ok = xi_equation_residual(sys.c2, sys.c1, sys.xi, sys.xi_tilde_E).is_zero
        yield f"xi-equation fails: {sys.case.value} {sys.params}", ok, float(not ok)


# deliberate defects the ode-residual suite must catch (test harness mode)
MUTANTS = ("p-l2-sign-flip",)


def _mutated_poly(sys: XSystem, n: int, mutant: Optional[str]) -> Optional[Poly]:
    """P_n carrying the named defect, or None where the defect does not apply."""
    if mutant == "p-l2-sign-flip" and sys.case is Case.L2:
        # flip the sign of the xi-proportional term, (a - n) L_n^(-a-1) xi
        a = sys.params.alpha
        return exceptional_poly(sys, n) - 2 * (a - n) * laguerre(n, -a - 1) * sys.xi
    return None


def _ode_residual(mutant: Optional[str] = None) -> Iterator[Check]:
    """Exact eigen-equation residuals across the grid, of P_n or of its mutant."""
    for sys in grid_systems(_ELLS):
        for n in range(_N_MAX + 1):
            ok = ode_residual(sys, n, _mutated_poly(sys, n, mutant)).is_zero
            yield (f"residual nonzero: {sys.case.value} ell={sys.params.ell} "
                   f"alpha={sys.params.alpha} beta={sys.params.beta} n={n}",
                   ok, float(not ok))


def _shifted_form() -> Iterator[Check]:
    """Exact proportionality between the two bilinear forms (nonzero constant)."""
    for sys in grid_systems(_ELLS):
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


def _degree_node() -> Iterator[Check]:
    """The degree and node laws by spectral level, for every case, exact via
    Sturm counting: the level-k polynomial has degree ell+k and exactly k
    zeros in the open eta-domain, and the energies strictly increase with k.
    Member n sits at level n, or n+1 for extj, whose level 0 is the constant."""
    for sys in grid_systems(_ELLS):
        ell = sys.params.ell
        for n in range(_N_MAX + 1):
            k = n + (sys.case is Case.EXTJ)
            P = level_poly(sys, k)
            ok = (P.degree() == ell + k and sturm_count(P, sys.domain_eta) == k
                  and (k == 0 or energy(sys, k - 1) < energy(sys, k)))
            yield f"degree/node law fails: {sys.case.value} {sys.params} n={n}", ok, float(not ok)


def _zero_count() -> Iterator[Check]:
    """Classical zero-count predictions vs exact Sturm counts on random
    admissible parameters; the ambiguous middle branch is oracle-only and
    therefore excluded here."""
    decided = (p for p in zero_count_draws(_ZERO_COUNT_SEED) if not p.oracle_resolved)
    for pred in islice(decided, _ZERO_COUNT_POINTS):
        kind, n, a, b = pred.kind, pred.n, pred.alpha, pred.beta
        exact = count_zeros_exact(kind, n, a, b)
        ok = pred.count == exact
        yield (f"{kind} n={n} alpha={a} beta={b}: predicted {pred.count}, exact {exact}",
               ok, float(not ok))


def _orthogonality() -> Iterator[Check]:
    """Normalized off-diagonal Gram entries below tolerance for every case."""
    for case, params in REPRESENTATIVE.items():
        worst = gram(build_system(case, params), _ORTHO_LEVELS).max_offdiag
        # passes only below tol, so a NaN fails, as in `exopoly ortho` and `exopoly spectrum`
        yield f"{case.value}: max off-diagonal {worst:.3e}", worst < _ORTHO_TOL, worst


def _spectrum() -> Iterator[Check]:
    """Finite-difference spectra against the closed forms for every case."""
    for case, params in REPRESENTATIVE.items():
        sys = build_system(case, params)
        worst = compare_spectrum(sys, _SPECTRUM_LEVELS, default_grid(sys)).max_error
        yield f"{case.value}: max eigenvalue error {worst:.3e}", worst < _SPECTRUM_TOL, worst


SUITES: dict[str, Callable[..., Iterator[Check]]] = {
    "identities": _identities,
    "xi-equation": _xi_equation,
    "ode-residual": _ode_residual,
    "shifted-form": _shifted_form,
    "degree-node": _degree_node,
    "zero-count": _zero_count,
    "orthogonality": _orthogonality,
    "spectrum": _spectrum,
}


def run_suite(name: str, mutant: Optional[str] = None) -> VerifyOutcome:
    """Run one suite on its fixed grid and tally its checks.

    ``mutant`` (one of ``MUTANTS``) is a defect injected into the
    ode-residual suite, the only one that takes it, to show that the suite
    fails loudly.  The labels of failing checks become the details (the
    first 10 are kept); the worst defect is the largest seen, a NaN above all.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    if mutant is not None and name != "ode-residual":
        raise ValueError(f"only the ode-residual suite takes a mutant, not {name!r}")
    if mutant is not None and mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}; have {list(MUTANTS)}")
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    details: list[str] = []
    for label, ok, defect in SUITES[name]() if mutant is None else SUITES[name](mutant):
        checked += 1
        worst = max(worst, defect, key=lambda d: (d != d, d))
        if not ok:
            details.append(label)
    return VerifyOutcome(name, not details, checked, len(details), worst,
                         time.monotonic() - t0, details[:10])


_FLOAT_SUITES = ("orthogonality", "spectrum")


def _pin(cpus: set[int]) -> None:
    if cpus:  # empty where the platform has no affinity calls
        os.sched_setaffinity(0, cpus)


def run_suites(names: Iterable[str], mutant: Optional[str] = None) -> list[VerifyOutcome]:
    """Run the named suites and return their outcomes in the order of
    ``names``; ``mutant`` goes to the ode-residual suite.

    When both float and exact suites are named, ``os.fork`` exists, two
    CPUs are usable and no other thread runs, a forked child runs the float
    suites while this process runs the exact ones (which share `_grid_at`);
    otherwise all run here, in order.  An error a float suite raises in the
    child is raised again here, with its type and message; a child that ends
    without a result raises RuntimeError.  The child is reaped on every path.
    """
    names = list(names)

    def run(selected: list[str]) -> list[VerifyOutcome]:
        return [run_suite(n, mutant) if n == "ode-residual" else run_suite(n) for n in selected]

    floats = [n for n in names if n in _FLOAT_SUITES]
    exact = [n for n in names if n not in _FLOAT_SUITES]
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    usable = len(affinity) or os.cpu_count() or 1
    # a forked copy of a process with other threads may inherit a held lock
    alone = threading.active_count() == 1
    if not (floats and exact and hasattr(os, "fork") and usable >= 2 and alone):
        return run(names)
    # the halves run on different CPUs: a kernel that does not balance load
    # across CPUs (as on some VMs) would keep the child on the parent's CPU
    cpus = sorted(affinity)
    import pickle  # only this path needs it: not loaded by every command

    _sys.stdout.flush()
    _sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: send the float outcomes, or the error, and never return
        code = 1
        try:
            os.close(read_fd)
            try:
                _pin(set(cpus[1:]))
                result = run(floats)
            except Exception as exc:
                result = exc
            data = pickle.dumps(result)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        _pin(set(cpus[:1]))
        exact_out = run(exact)
    finally:  # read to EOF before reaping, so a child blocked on a full pipe can finish
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        _pin(affinity)
    if status != 0:
        how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
        raise RuntimeError(f"the float suites {', '.join(floats)} ended without a result ({how})")
    float_out = pickle.loads(data)  # bytes this program's own child wrote
    if isinstance(float_out, Exception):
        raise float_out
    float_it, exact_it = iter(float_out), iter(exact_out)
    return [next(float_it if n in _FLOAT_SUITES else exact_it) for n in names]
