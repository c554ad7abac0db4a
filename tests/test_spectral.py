"""Finite-difference spectral checks against the closed-form eigenvalues."""

import functools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exopoly import spectral
from exopoly.spectral import (
    DEFAULT_POINTS,
    MIN_POINTS,
    GridSpec,
    SpectrumReport,
    Tridiag,
    _count_below,
    compare_spectrum,
    default_grid,
    discretize,
    eigen_lowest,
    richardson_lowest,
    tridiag_from_potential,
)
from exopoly.systems import Case, Params, build_system, energy, wavefunction_eval
from exopoly.verify import REPRESENTATIVE
from oracles import bisection_count_below, bisection_lowest, bisection_richardson

# the two admissible limit-circle points whose spectrum check fails
KNOWN_FAILING = [(Case.L1, Params(0, F(-1))), (Case.J1, Params(0, F(2), F(-1, 2)))]


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


def _grids(case, params):
    sys = build_system(case, params)
    grid = default_grid(sys)
    return sys, grid, (discretize(sys, grid.coarse()), discretize(sys, grid))


@pytest.mark.parametrize("case", list(REPRESENTATIVE))
def test_bit_identical_to_plain_bisection_on_representative_grids(case):
    # every count the bisection skips is decided by monotonicity, so the
    # answer is plain bisection's to the last bit, on each grid and extrapolated
    sys, grid, ops = _grids(case, REPRESENTATIVE[case])
    for op in ops:
        assert eigen_lowest(op, 10) == bisection_lowest(op, 10)
    operator = lambda g: discretize(sys, g)
    assert richardson_lowest(operator, grid, 10) == bisection_richardson(operator, grid, 10)


@pytest.mark.parametrize("case, params", KNOWN_FAILING)
def test_bit_identical_on_known_failing_points(case, params):
    with np.errstate(all="ignore"):
        sys, grid, ops = _grids(case, params)
        for op in ops:
            assert eigen_lowest(op, 10) == bisection_lowest(op, 10)


def test_passes_on_representative_grids(monkeypatch):
    # each call is one LDL^T pass: Newton's samples and the counts they leave
    # undecided take 966 on the ten grids
    passes = []

    def counted(*args):
        passes.append(args)
        return _count_below(*args)

    monkeypatch.setattr(spectral, "_count_below", counted)
    for case, params in REPRESENTATIVE.items():
        for op in _grids(case, params)[2]:
            eigen_lowest(op, 5)
    assert len(passes) <= 966


@pytest.mark.parametrize("slope", [0.0, math.nan])
def test_newton_without_a_usable_slope_falls_back_to_bisection(monkeypatch, slope):
    # with a zero or NaN slope every Newton step leaves its bracket, so the
    # placement runs its 200 midpoint samples and gives up without certifying
    # a root; the samples it leaves still give plain bisection's answer
    slope_passes = []

    def flat(diag, off2, sigma, want_slope=False):
        got = _count_below(diag, off2, sigma, want_slope)
        if not want_slope:
            return got
        slope_passes.append(sigma)
        return got[0], slope

    monkeypatch.setattr(spectral, "_count_below", flat)
    for case, params in REPRESENTATIVE.items():
        op = _grids(case, params)[2][0]
        del slope_passes[:]
        assert eigen_lowest(op, 5) == bisection_lowest(op, 5)
        assert slope_passes and len(slope_passes) % 200 == 0


def _random_tridiags(count):
    rng = np.random.default_rng(4711)
    for _ in range(count):
        n = int(rng.integers(1, 60))
        d = rng.normal(scale=float(rng.choice([1e-3, 1.0, 1e4])), size=n)
        e = rng.normal(size=n - 1)
        if n > 1:  # exact zeros split the matrix; 1e-9 nearly does
            e[rng.random(n - 1) < 0.2] = 0.0
            e[rng.random(n - 1) < 0.1] = 1e-9
        yield Tridiag(d, e)


def _special_tridiags():
    w21 = np.abs(np.arange(-10.0, 11.0))  # Wilkinson's W21+: pairs agree to ~14 digits
    yield Tridiag(w21, np.ones(20))
    blocks = np.tile([2.0, 2.0, 5.0], 4)  # blocks [[2,-1],[-1,2]] and [5]: 1, 3, 5 four times each
    yield Tridiag(blocks, np.tile([-1.0, 0.0, 0.0], 4)[:-1])
    yield Tridiag(np.zeros(7), np.zeros(6))
    yield Tridiag(np.array([2.0, 2.0]), np.array([-1.0]))
    yield Tridiag(np.array([1.0, 2.0, 3.0]), np.zeros(2))
    yield Tridiag(np.array([-0.0, 1.0, -0.0]), np.zeros(2))


def test_bit_identical_on_hard_and_random_matrices():
    for op in [*_special_tridiags(), *_random_tridiags(40)]:
        k = min(10, len(op.diag))
        assert eigen_lowest(op, k) == bisection_lowest(op, k)


@functools.cache
def _monotone_ops():
    """(diag, off2, lowest levels) of the l2 and extj fine grids and five
    random matrices."""
    ops = [_grids(case, REPRESENTATIVE[case])[2][1] for case in (Case.L2, Case.EXTJ)]
    ops += _random_tridiags(5)
    return [([float(d) for d in op.diag], [float(e) ** 2 for e in op.off],
             bisection_lowest(op, min(10, len(op.diag)))) for op in ops]


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 6), level=st.integers(0, 9),
       offset=st.floats(-1e-9, 1e-9), ulps=st.integers(1, 2**20))
def test_count_never_falls_as_the_shift_rises(which, level, offset, ulps):
    # the count inference rests on this: shifts a few ulps apart next to an
    # eigenvalue, where the pivots are smallest and rounding matters most
    diag, off2, lam = _monotone_ops()[which]
    s1 = lam[min(level, len(lam) - 1)] * (1.0 + offset) + offset
    s2 = s1 + ulps * math.ulp(s1)
    assert _count_below(diag, off2, s1) <= _count_below(diag, off2, s2)


def test_zero_and_negative_zero_pivots_count_as_before():
    cases = [
        ([1.0, 4.0, 3.0], [4.0, 1.0], 0.0),  # q_1 = 4 - 4/1 = 0.0
        ([2.0, 1.0, 3.0], [1.0, 1.0], 2.0),  # q_0 = 0.0
        ([-0.0, 1.0, 2.0], [0.0, 1.0], 0.0),  # q_0 = -0.0 - 0.0 = -0.0
        ([1.0, -0.0, 2.0], [0.0, 1.0], 0.0),  # q_1 = -0.0 - 0/1 = -0.0
        ([1.0, 2.0, -0.0], [0.0, 0.0], 0.0),  # the last pivot is -0.0
        ([3.0, 1.0, 0.0], [2.0, 1.0], 1.0),  # q_2 = -1 - 1/(-1) = 0.0
    ]
    for diag, off2, sigma in cases:
        want = bisection_count_below(diag, off2, sigma)
        assert _count_below(diag, off2, sigma) == want
        assert _count_below(diag, off2, sigma, slope=True)[0] == want


def test_newton_slope_is_the_log_determinant_derivative():
    rng = np.random.default_rng(9)
    d, e = rng.normal(size=50), rng.normal(size=49)
    lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    for sigma in (0.5 * (lam[10] + lam[11]), lam[30] + 1e-3, lam[0] - 2.0):
        count, s = _count_below(list(d), list(e * e), float(sigma), slope=True)
        want = -np.sum(1.0 / (lam - sigma))
        assert count == int(np.sum(lam < sigma))
        assert abs(s - want) <= 1e-8 * abs(want)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.5, 500)


@pytest.mark.parametrize("points", [0, -1])
def test_grid_without_an_interior_point_rejected(points):
    sys = build_system(Case.L2, Params(1, F(-2)))
    with pytest.raises(ValueError, match="at least one interior point"):
        discretize(sys, GridSpec(1e-3, 12.0, points))


def test_nonfinite_potential_names_the_node():
    grid = GridSpec(0.0, 1.0, 100)

    def bad(x):
        x = np.asarray(x)
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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 9: at l1 alpha = -1/2 the wall x = 0 has nu = 1 (g = 0), so "
    "Dirichlet is right and the whole error is the 1e-3 margin's cost "
    "delta^(2nu-1) = delta: about 1.13e-3 at every ell"))
@pytest.mark.parametrize("ell", range(4))
def test_l1_canonical_point_with_nu_one_at_the_wall(ell):
    rep = compare_spectrum(build_system(Case.L1, Params(ell, F(-1, 2))), 5)
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
        xs = np.asarray(grid.interior())
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
    # the box stops 1e-3 short of each wall in `walls`, and the half line ends at 12
    for case, params in REPRESENTATIVE.items():
        grid = default_grid(build_system(case, params))
        box = (1e-3, 12.0) if case.is_laguerre else (1e-3, math.pi / 2 - 1e-3)
        assert (grid.x_min, grid.x_max, grid.points) == (*box, DEFAULT_POINTS), case
    assert isinstance(compare_spectrum(build_system(Case.L2, Params(1, F(-2))), 2,
                                       GridSpec(1e-3, 12.0, 800)), SpectrumReport)
