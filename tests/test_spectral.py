"""Finite-difference spectral checks against the closed-form eigenvalues."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from exopoly.spectral import (
    DEFAULT_POINTS,
    MIN_POINTS,
    GridSpec,
    SpectrumReport,
    Tridiag,
    compare_spectrum,
    default_grid,
    discretize,
    eigen_lowest,
    richardson_lowest,
    tridiag_from_potential,
)
from exopoly.systems import Case, Params, build_system, energy, wavefunction_eval


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def test_diagonal_matrix():
    op = Tridiag(np.array([1.0, 2.0, 3.0]), np.zeros(2))
    got = eigen_lowest(op, 3)
    assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-12)


def test_two_by_two_analytic():
    op = Tridiag(np.array([2.0, 2.0]), np.array([-1.0]))
    got = eigen_lowest(op, 2)
    assert np.allclose(got, [1.0, 3.0], atol=1e-12)


def test_box_spectrum_and_convergence_order():
    errs = []
    for n in (1000, 2000):
        grid = GridSpec(0.0, math.pi, n)
        op = tridiag_from_potential(np.zeros_like, grid)
        vals = eigen_lowest(op, 3)
        errs.append(max(abs(v - w) for v, w in zip(vals, [1.0, 4.0, 9.0])))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0  # second order: halving h quarters the error


def test_matches_lapack_oracle():
    import scipy.linalg as sla

    rng = np.random.default_rng(20814)
    for n in (40, 251):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        mine = eigen_lowest(Tridiag(d, e), 7)
        ref = sla.eigvalsh_tridiagonal(d, e)[:7]
        assert np.allclose(mine, ref, rtol=0, atol=1e-10 * max(1.0, abs(ref).max()))


def test_eigen_lowest_limits():
    op = Tridiag(np.arange(20.0), np.zeros(19))
    with pytest.raises(ValueError):
        eigen_lowest(op, 11)
    with pytest.raises(ValueError):
        eigen_lowest(op, 0)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.5, 500)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 50)


def test_nonfinite_potential_names_the_node():
    grid = GridSpec(0.0, 1.0, 100)

    def bad(x):
        return np.where((0.49 < x) & (x < 0.52), np.inf, 0.0)

    with pytest.raises(ValueError, match="grid node"):
        tridiag_from_potential(bad, grid)


def test_l2_operator_assembles():
    sys = build_system(Case.L2, Params(1, F(-2)))
    op = discretize(sys, GridSpec(1e-3, 12.0, 1500))
    assert len(op.diag) == 1500
    assert np.all(np.isfinite(op.diag))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_l2_spectrum():
    sys = build_system(Case.L2, Params(1, F(-2)))
    rep = compare_spectrum(sys, 5)
    assert [int(a) for a in rep.analytic] == [4, 8, 12, 16, 20]
    assert rep.max_error < 1e-3


def test_l1_spectrum():
    sys = build_system(Case.L1, Params(1, F(1, 2)))
    rep = compare_spectrum(sys, 5)
    assert [int(a) for a in rep.analytic] == [10, 14, 18, 22, 26]
    assert rep.max_error < 1e-3


def test_extj_ground_state_is_numerically_zero():
    sys = build_system(Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)))
    rep = compare_spectrum(sys, 5)
    assert rep.analytic[0] == 0
    assert abs(rep.numeric[0]) < 1e-3
    assert rep.max_error < 1e-3


def test_levels_strictly_increasing():
    sys = build_system(Case.J1, Params(1, F(1, 2), F(-2)))
    rep = compare_spectrum(sys, 5)
    assert all(b > a for a, b in zip(rep.numeric, rep.numeric[1:]))


def test_count_below_matches_analytic_count():
    # between consecutive analytic eigenvalues the operator must have exactly
    # the analytic number of levels below
    from exopoly.spectral import _count_below

    sys = build_system(Case.L2, Params(1, F(-2)))
    op = discretize(sys, GridSpec(1e-3, 12.0, 2000))
    off2 = [float(e) ** 2 for e in op.off]
    diag = [float(d) for d in op.diag]
    analytic = [float(energy(sys, j)) for j in range(6)]
    for j in range(1, 6):
        midpoint = 0.5 * (analytic[j - 1] + analytic[j])
        assert _count_below(diag, off2, midpoint) == j


def test_eigenvalue_error_drops_at_second_order():
    # the plain operator, without extrapolation
    sys = build_system(Case.L2, Params(1, F(-2)))
    analytic = [float(energy(sys, j)) for j in range(3)]
    errs = []
    for n in (1000, 2000):
        vals = eigen_lowest(discretize(sys, GridSpec(1e-3, 12.0, n)), 3)
        errs.append(max(abs(v - a) / a for v, a in zip(vals, analytic)))
    assert 2.5 < errs[0] / errs[1] < 6.0


def test_extrapolation_cancels_the_second_order_term():
    # zero potential on [0, pi]: the exact eigenvalues are j^2
    exact = [1.0, 4.0, 9.0, 16.0, 25.0]
    box = lambda g: tridiag_from_potential(np.zeros_like, g)
    plain, extrapolated = [], []
    for n in (399, 799):  # n + 1 doubles
        grid = GridSpec(0.0, math.pi, n)
        plain.append(max(abs(v - e) for v, e in zip(eigen_lowest(box(grid), 5), exact)))
        extrapolated.append(max(abs(v - e) for v, e in zip(richardson_lowest(box, grid, 5), exact)))
    assert 3.5 < plain[0] / plain[1] < 4.5
    assert extrapolated[0] / extrapolated[1] > 10.0
    assert extrapolated[1] < plain[1] / 100
    # n + 1 odd: the coarse grid has 199 points, so r = (401/200)^2, not 4
    grid = GridSpec(0.0, math.pi, 400)
    plain_err = max(abs(v - e) for v, e in zip(eigen_lowest(box(grid), 5), exact))
    assert max(abs(v - e) for v, e in zip(richardson_lowest(box, grid, 5), exact)) < plain_err / 1000


def test_two_grids_share_the_box():
    sys = build_system(Case.L2, Params(1, F(-2)))
    rep = compare_spectrum(sys, 2)
    assert (rep.grid.points, rep.coarse.points) == (DEFAULT_POINTS, 499)
    assert rep.coarse.h == 2 * rep.grid.h
    assert (rep.coarse.x_min, rep.coarse.x_max) == (rep.grid.x_min, rep.grid.x_max)
    # an explicit grid whose point count + 1 is odd still works
    rep = compare_spectrum(sys, 2, GridSpec(1e-3, 12.0, 4000))
    assert rep.coarse.points == 1999 and rep.max_error < 1e-5


def test_spectrum_errors_name_case_parameters_and_grid():
    sys = build_system(Case.L2, Params(1, F(-2)))
    with pytest.raises(ValueError, match=rf"case l2 \(ell=1, alpha=-2, beta=None\), "
                                         rf"150-point grid: .*at least {MIN_POINTS} points"):
        compare_spectrum(sys, 3, GridSpec(1e-3, 12.0, 150))
    compare_spectrum(sys, 1, GridSpec(1e-3, 12.0, MIN_POINTS))
    # x^2 underflows to zero on this box, so V = g/x^2 is infinite
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"case l2 \(ell=1, alpha=-2, beta=None\), 999-point grid: "
                              r"potential is not finite at grid node 0"):
        compare_spectrum(sys, 3, GridSpec(0.0, 1e-200, 999))


def test_operator_residual_on_analytic_eigenfunctions():
    """(H_grid - E_n) phi_n -> 0 at second order, using the sampled analytic
    eigenfunctions.  The norm is taken over a fixed interior window: rows next
    to the Dirichlet walls encode the domain truncation, and inside the 1/x^2
    layer the fourth derivative grows as the grid approaches the wall, so
    neither measures the scheme's order."""
    sys = build_system(Case.L2, Params(1, F(-2)))
    ratios = []
    for n_pts in (1000, 2000):
        grid = GridSpec(1e-3, 12.0, n_pts)
        op = discretize(sys, grid)
        xs = grid.interior()
        h = grid.h
        window = (xs[1:-1] > 0.5) & (xs[1:-1] < 8.0)
        for level in (0, 1):
            phi = np.array([wavefunction_eval(sys, level, float(x)) for x in xs])
            e = float(energy(sys, level))
            applied = (
                op.diag[1:-1] * phi[1:-1]
                - phi[:-2] / h**2
                - phi[2:] / h**2
            )
            resid = (applied - e * phi[1:-1])[window]
            rel = np.linalg.norm(resid) / np.linalg.norm((e * phi[1:-1])[window])
            ratios.append(rel)
    # two levels at two resolutions: error must fall by about 4x
    assert ratios[0] / ratios[2] > 2.5
    assert ratios[1] / ratios[3] > 2.5


def test_default_grids():
    lag = default_grid(build_system(Case.L2, Params(1, F(-2))))
    assert (lag.x_min, lag.x_max) == (1e-3, 12.0)
    jac = default_grid(build_system(Case.J1, Params(1, F(1, 2), F(-2))))
    assert jac.x_max == pytest.approx(math.pi / 2 - 1e-3)
    assert isinstance(compare_spectrum(build_system(Case.L2, Params(1, F(-2))), 2,
                                       GridSpec(1e-3, 12.0, 800)), SpectrumReport)
