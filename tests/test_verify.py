"""Verification-suite plumbing: grids, outcomes, error paths."""

import os
import signal
import threading

import pytest

from exopoly.quadrature import QuadratureConvergenceError
from exopoly.systems import (
    Case,
    ParameterError,
    Params,
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


def test_xi_equation_residual_detects_a_wrong_constant():
    for sys in grid_systems(ells=(0, 1, 2)):
        assert xi_equation_residual(sys.c2, sys.c1, sys.xi, sys.xi_tilde_E).is_zero
        # the residual then is xi itself, nonzero
        assert xi_equation_residual(sys.c2, sys.c1, sys.xi, sys.xi_tilde_E + 1) == sys.xi


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
