"""Verification-suite plumbing: grids, outcomes, error paths."""

import hashlib
import math
import os
import signal
import threading
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from exopoly import spectral, systems, verify
from exopoly.classical import _jacobi_cached, _laguerre_cached, laguerre
from exopoly.polycore import ETA
from exopoly.quadrature import QuadratureConvergenceError
from exopoly.systems import (
    Case,
    ParameterError,
    Params,
    XSystem,
    build_system,
    exceptional_poly,
    ode_residual,
    xi_equation_residual,
)
from exopoly.verify import (
    MUTANTS,
    REPRESENTATIVE,
    SUITES,
    VerifyOutcome,
    _mutated_poly,
    grid_params,
    grid_systems,
    run_suite,
    run_suites,
)


def test_every_grid_point_is_admissible():
    count = 0
    for sys in grid_systems(ells=(0, 1, 2, 3)):
        count += 1
        assert sys.xi
    assert count == 60  # 5 cases x 4 degrees x 3 points


def test_grid_avoids_degenerate_deforming_functions():
    for ell in (1, 2, 3):
        for case in Case:
            for params in grid_params(case, ell):
                sys = build_system(case, params)
                assert sys.xi.degree() == ell, (case, params)


def test_representative_points_cover_all_cases():
    assert set(REPRESENTATIVE) == set(Case)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("frobnicate")
    with pytest.raises(ValueError):
        grid_params(Case.EXTJ, 9)


def test_outcome_shape():
    out = run_suite("xi-equation")
    assert isinstance(out, VerifyOutcome)
    assert out.suite == "xi-equation"
    assert out.checked > 0 and out.failures == 0
    assert set(SUITES) >= {"identities", "ode-residual", "orthogonality", "spectrum"}


def test_negative_degree_rejected():
    with pytest.raises(ParameterError):
        Params(-1, 2)


def test_unknown_mutant_rejected():
    with pytest.raises(ValueError, match="unknown mutant"):
        run_suite("ode-residual", mutant="bogus")
    with pytest.raises(ValueError, match="only the ode-residual suite takes a mutant"):
        run_suite("xi-equation", mutant=MUTANTS[0])


def test_ode_residual_takes_a_stand_in_polynomial():
    for case, params in REPRESENTATIVE.items():
        sys = build_system(case, params)
        for n in range(4):
            assert ode_residual(sys, n, poly=exceptional_poly(sys, n)).is_zero
            assert _mutated_poly(sys, n, None) is None
    sys = build_system(Case.L2, REPRESENTATIVE[Case.L2])
    for mutant in MUTANTS:
        for n in range(4):
            assert not ode_residual(sys, n, poly=_mutated_poly(sys, n, mutant)).is_zero


def test_sign_flip_mutant_is_the_l2_form_with_its_xi_term_flipped():
    for sys in grid_systems(ells=(0, 1, 2, 3)):
        if sys.case is not Case.L2:
            assert _mutated_poly(sys, 1, "p-l2-sign-flip") is None
            continue
        a = sys.params.alpha
        for n in range(6):
            want = (ETA * laguerre(n, -a) * sys.xi.derivative()
                    - (a - n) * laguerre(n, -a - 1) * sys.xi)
            assert _mutated_poly(sys, n, "p-l2-sign-flip") == want


# the case whose measurement reads NaN: the first representative point or the last
NAN_AT = {"first": list(REPRESENTATIVE)[0], "last": list(REPRESENTATIVE)[-1]}


@pytest.mark.parametrize("where", list(NAN_AT))
def test_a_nan_measurement_fails_its_float_suite(monkeypatch, where):
    def measured(sys):
        return math.nan if sys.case is NAN_AT[where] else 1e-15

    monkeypatch.setattr(verify, "gram", lambda sys, N: SimpleNamespace(max_offdiag=measured(sys)))
    monkeypatch.setattr(verify, "compare_spectrum",
                        lambda sys, k, grid: SimpleNamespace(max_error=measured(sys)))
    for suite, what in (("orthogonality", "max off-diagonal"),
                        ("spectrum", "max eigenvalue error")):
        out = run_suite(suite)
        assert (out.passed, out.checked, out.failures) == (False, 5, 1), suite
        assert out.details == [f"{NAN_AT[where].value}: {what} nan"]
        assert math.isnan(out.worst_defect), suite


def test_zero_count_failures_name_beta(monkeypatch):
    monkeypatch.setattr(verify, "count_zeros_exact", lambda kind, n, a, b: -1)
    out = run_suite("zero-count")
    assert out.failures == out.checked == 200
    jacobi = [d for d in out.details if d.startswith("jacobi")]
    assert jacobi and all(" beta=" in d for d in jacobi)


def test_identity_draws_are_pinned(monkeypatch):
    # every identity holds, so only the arguments show a change in the sampler
    seen, real = [], verify.identity_residual

    def record(name, ell, alpha, beta=None):
        seen.append(f"{name} {ell} {alpha} {beta}")
        return real(name, ell, alpha, beta)

    monkeypatch.setattr(verify, "identity_residual", record)
    assert run_suite("identities").passed and len(seen) == 200
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == (
        "d8e163da04d840ccfd913dc9798e9944df5716359fe441672ee6b345b6b33c0c")


def test_verify_working_set_fits_the_classical_caches():
    # classical._CACHE_ENTRIES is sized to this: all eight suites, run in one
    # process from cold caches, build every polynomial once and evict none
    for cached in (_jacobi_cached, _laguerre_cached, verify._grid_at):
        cached.cache_clear()
    for name in SUITES:
        run_suite(name)
    for cached in (_jacobi_cached, _laguerre_cached):
        info = cached.cache_info()
        assert info.misses == info.currsize, (cached, info)


def test_xi_equation_residual_detects_a_wrong_constant():
    for sys in grid_systems(ells=(0, 1, 2)):
        assert xi_equation_residual(sys.c2, sys.c1, sys.xi, sys.xi_tilde_E).is_zero
        # the residual then is xi itself, nonzero
        assert xi_equation_residual(sys.c2, sys.c1, sys.xi, sys.xi_tilde_E + 1) == sys.xi


# ---------------------------------------------------------------------------
# a seeded defect fails its own suite
# ---------------------------------------------------------------------------


def _flip_a_sign_in_an_identity(monkeypatch):
    real = verify.identity_residual

    def residual(name, ell, alpha, beta=None):
        if name != "L-2":
            return real(name, ell, alpha, beta)
        # L-2 is L_ell^(a) + L_(ell-1)^(a+1) - L_ell^(a+1); its middle sign flipped
        return laguerre(ell, alpha) - laguerre(ell - 1, alpha + 1) - laguerre(ell, alpha + 1)

    monkeypatch.setattr(verify, "identity_residual", residual)


def _xi_tilde_E_plus_one(monkeypatch):
    # the property shadows the value each built system keeps; build_system itself
    # rejects the defect, so the grid must be built (by the clean run) before it
    real = XSystem.xi_tilde_E.func
    monkeypatch.setattr(XSystem, "xi_tilde_E", property(lambda sys: real(sys) + 1))


def _shift_the_l2_xi_wrongly(monkeypatch):
    real = verify.shifted_form_poly

    def shifted(sys, n):
        if sys.case is not Case.L2:
            return real(sys, n)
        ell, a = sys.params.ell, sys.params.alpha
        U = laguerre(n, -a)
        # the shifted xi taken at alpha, where the form has alpha - 1
        return (a + ell) * U * laguerre(ell, a) - ETA * U.derivative() * sys.xi

    monkeypatch.setattr(verify, "shifted_form_poly", shifted)


def _jacobi_prediction_plus_one(monkeypatch):
    real = verify.zero_count_draws

    def draws(seed):
        for pred in real(seed):
            if pred.branch == "jacobi_interval":  # a namespace: the dataclass caps count at n
                pred = SimpleNamespace(**{**vars(pred), "count": pred.count + 1})
            yield pred

    monkeypatch.setattr(verify, "zero_count_draws", draws)


def _weight_exponent_off(monkeypatch):
    real = XSystem.weight.func

    def weight(sys):  # the exponent of the factor that vanishes at x = 0
        w = real(sys)
        name = "a" if sys.case.is_laguerre else "b"
        return replace(w, **{name: getattr(w, name) + Fraction(1, 10**6)})

    monkeypatch.setattr(XSystem, "weight", property(weight))


def _one_energy_off(monkeypatch):
    real = spectral.energy

    def energy(sys, level):
        off = sys.case is Case.J1 and level == 2
        return real(sys, level) * (Fraction(1002, 1000) if off else 1)

    monkeypatch.setattr(spectral, "energy", energy)


def _family_index_plus_one(case):
    """Every level of one case given the next family member: extj's level k
    gets member k, where it has member k - 1."""
    def seed(monkeypatch):
        real = systems.family_index

        def family_index(sys, level):
            n = real(sys, level)
            return n if sys.case is not case else 0 if n is None else n + 1

        monkeypatch.setattr(systems, "family_index", family_index)
    return seed


def _swap_two_levels(monkeypatch):
    real = verify.level_poly

    def level_poly(sys, level):  # j1's levels 2 and 3 trade polynomials
        return real(sys, 5 - level if sys.case is Case.J1 and level in (2, 3) else level)

    monkeypatch.setattr(verify, "level_poly", level_poly)


def _mirror_l1_levels(monkeypatch):
    # l1's level polynomials at -eta keep their degrees, but their k zeros on
    # (0, inf) trade places with the ell on (-inf, 0): only the node count sees it
    real = verify.level_poly

    def level_poly(sys, level):
        P = real(sys, level)
        return P.compose_neg() if sys.case is Case.L1 else P

    monkeypatch.setattr(verify, "level_poly", level_poly)


def _flat_energy(monkeypatch):
    real = verify.energy

    def energy(sys, level):  # j2's level 3 at level 2's energy
        return real(sys, 2 if sys.case is Case.J2 and level == 3 else level)

    monkeypatch.setattr(verify, "energy", energy)


# defect: (its suite, the seeded defect, the failures it causes, a text in each failing label).
# degree-node checks 9 systems of each case at 6 levels: an index off by one fails all 54 of
# its case, the swap two levels of each j1 system, the mirror every l1 level but k = ell, and
# the flat energy level 3 of each j2 system
SEEDED = {
    "identities": ("identities", _flip_a_sign_in_an_identity, 20, "L-2 fails"),  # one L-2 check per draw
    "xi-equation": ("xi-equation", _xi_tilde_E_plus_one, 60, "xi-equation fails"),  # every system
    "shifted-form": ("shifted-form", _shift_the_l2_xi_wrongly, 54, " l2 "),  # 9 l2 systems x 6 members
    "degree-node-extj-index": ("degree-node", _family_index_plus_one(Case.EXTJ), 54, " extj "),
    "degree-node-l1-index": ("degree-node", _family_index_plus_one(Case.L1), 54, " l1 "),
    "degree-node-levels-swapped": ("degree-node", _swap_two_levels, 18, " j1 "),
    "degree-node-l1-mirrored": ("degree-node", _mirror_l1_levels, 45, " l1 "),
    "degree-node-energy-flat": ("degree-node", _flat_energy, 9, " j2 "),
    "zero-count": ("zero-count", _jacobi_prediction_plus_one, 108, "jacobi n="),  # every jacobi draw
    "orthogonality": ("orthogonality", _weight_exponent_off, 5, "max off-diagonal"),  # every point
    "spectrum": ("spectrum", _one_energy_off, 1, "j1: max eigenvalue error 1.9"),
}


@pytest.fixture
def fresh_grid():
    """verify's canonical systems cleared before and after: a defect may leave
    its value in a cached property of one, and no other test may see it."""
    verify._grid_at.cache_clear()
    yield
    verify._grid_at.cache_clear()


@pytest.mark.parametrize("defect", list(SEEDED))
def test_a_seeded_defect_fails_its_suite(fresh_grid, monkeypatch, defect):
    suite, seed, failures, label = SEEDED[defect]
    assert run_suite(suite).passed
    seed(monkeypatch)
    out = run_suite(suite)
    assert (out.passed, out.failures) == (False, failures)
    assert out.details and all(label in d for d in out.details), out.details


# ---------------------------------------------------------------------------
# run_suites: the float suites in a forked child, the exact ones in the caller
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) >= 2),
    reason="the split needs os.fork and two usable CPUs")


def _fields(outcomes):
    return [{k: v for k, v in vars(o).items() if k != "elapsed_s"} for o in outcomes]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children run_suites forks."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@needs_fork
@pytest.mark.parametrize("names, mutant", [
    (list(SUITES), None),
    (list(SUITES), "p-l2-sign-flip"),
    (list(SUITES)[::-1] + ["spectrum", "identities"], None),
])
def test_run_suites_matches_one_suite_at_a_time(forks, names, mutant):
    expected = [run_suite(n, mutant) if n == "ode-residual" else run_suite(n) for n in names]
    cpus = os.sched_getaffinity(0)
    got = run_suites(names, mutant)
    assert len(forks) == 1 and os.sched_getaffinity(0) == cpus  # unpinned again
    assert _fields(got) == _fields(expected)


@needs_fork
def test_a_float_suite_error_is_raised_again_in_the_caller(monkeypatch, forks):
    err = QuadratureConvergenceError("case l2 (ell=1, alpha=-2, beta=None), pair (4, 14):",
                                     1.0, 2.0, 25342)

    def stalls():
        raise err

    monkeypatch.setitem(SUITES, "orthogonality", stalls)
    with pytest.raises(QuadratureConvergenceError) as caught:
        run_suites(["xi-equation", "orthogonality"])
    assert forks and caught.value is not err  # rebuilt from the child's pickle
    assert str(caught.value) == str(err) and caught.value.nodes == 25342


@needs_fork
def test_an_exact_suite_error_leaves_no_child(monkeypatch, forks):
    def broken():
        raise ZeroDivisionError("exact suite broke")

    monkeypatch.setitem(SUITES, "xi-equation", broken)
    cpus = os.sched_getaffinity(0)
    with pytest.raises(ZeroDivisionError, match="exact suite broke"):
        run_suites(["xi-equation", "spectrum"])
    assert forks and os.sched_getaffinity(0) == cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
], ids=["exit-3", "sigkill"])
def test_a_child_without_a_result_is_named(monkeypatch, forks, death, how):
    caller = os.getpid()

    def dies():
        if os.getpid() == caller:
            raise AssertionError("the float suites ran in the caller")
        death()

    monkeypatch.setitem(SUITES, "spectrum", dies)
    with pytest.raises(RuntimeError) as caught:
        run_suites(["zero-count", "orthogonality", "spectrum"])
    assert forks
    assert str(caught.value) == f"the float suites orthogonality, spectrum ended without a result ({how})"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("names, cpus", [
    (["spectrum"], {0, 1}),
    (["orthogonality", "spectrum"], {0, 1}),
    (["xi-equation", "degree-node"], {0, 1}),
    (["xi-equation", "spectrum"], {0}),
])
def test_run_suites_stays_in_process(monkeypatch, names, cpus):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("run_suites forked"), raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert [o.suite for o in run_suites(names)] == names
    monkeypatch.delattr(os, "fork")  # a platform without fork
    assert [o.suite for o in run_suites(names)] == names


def test_run_suites_does_not_fork_beside_other_threads(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("run_suites forked"), raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert [o.suite for o in run_suites(["xi-equation", "orthogonality"])] == [
            "xi-equation", "orthogonality"]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
