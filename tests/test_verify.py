"""Verification-suite plumbing: grids, outcomes, error paths."""

import pytest

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
