"""Quadrature rules and orthogonality of the deformed families."""

import math
import pickle
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from exopoly import quadrature
from exopoly.polycore import Interval, POS_INF
from exopoly.quadrature import (
    GramReport,
    QuadratureConvergenceError,
    gram,
    _ts_points,
)
from exopoly.systems import Case, Params, build_system
from exopoly.verify import REPRESENTATIVE

from oracles import gram_reference, half_line_points, inner_product, integrate, seed_flipped_coeff

UNIT = Interval(F(0), F(1))
SYM = Interval(F(-1), F(1))
HALF_LINE = Interval(F(0), POS_INF)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def test_rule_invariants():
    # the step-2^-5 rule, refined level by level as gram sums it; a node
    # next to an end may round onto it, but its distances stay positive
    total = 0.0
    for level in range(1, 6):
        pts = list(_ts_points(UNIT, level))
        for x, d_lo, d_hi, w in pts:
            assert w > 0 and d_lo > 0 and d_hi > 0
            assert 0 <= x <= 1 and abs(d_lo + d_hi - 1) <= 1e-16
        total = 0.5 * total + sum(w for *_, w in pts)
    assert abs(total - 1.0) <= 1e-12


def test_nodes_carry_endpoint_distances_below_an_ulp():
    # at level 5 the outermost nodes lie ~1e-37 from each end of (-1, 1):
    # the nodes round onto the ends, their distances do not
    pts = list(_ts_points(SYM, 5))
    assert min(d for _, d, _, _ in pts) < 1e-30
    assert min(d for _, _, d, _ in pts) < 1e-30
    assert any(x == -1.0 for x, _, _, _ in pts) and any(x == 1.0 for x, _, _, _ in pts)
    for x, d_lo, d_hi, _ in pts:
        assert x - d_lo == -1.0 or d_lo > 0.5
        assert x + d_hi == 1.0 or d_hi > 0.5


@pytest.mark.parametrize("lo", [0, 3])
def test_half_line_nodes_are_the_unit_rule_mapped(lo):
    # every node of the unit interval's rule mapped by d_lo / d_hi carries
    # the bits of the half-line rule derived on its own; a single form of
    # the squared far distance would change nodes at levels 9 and 12
    for level in range(1, 13):
        got = [tuple(map(float.hex, p)) for p in _ts_points(Interval(F(lo), POS_INF), level)]
        want = [tuple(map(float.hex, p)) for p in half_line_points(float(lo), level)]
        assert len(got) == len(want), level
        assert got == want, level


def test_finite_interval_examples():
    assert abs(integrate(lambda x, *_: x, UNIT) - 0.5) <= 1e-14
    want = (2.0 / 3.0) * 2.0**1.5
    assert abs(integrate(lambda x, *_: np.sqrt(1 - x), SYM) - want) <= 1e-12 * want
    # a singular end factor from the distance: the integral of (1 - x)^(-1/2)
    want = 2.0 * 2.0**0.5
    assert abs(integrate(lambda x, lo, hi: hi ** -0.5, SYM) - want) <= 1e-12 * want


def test_half_line_decaying_integrand():
    assert abs(integrate(lambda x, *_: np.exp(-x), HALF_LINE) - 1.0) <= 1e-10


def test_unsupported_combinations():
    with pytest.raises(ValueError, match="finite lower bound"):
        integrate(lambda x, *_: np.exp(x), Interval(float("-inf"), F(0)))


def test_nonconvergence_reports_achieved_estimate():
    # logarithmically divergent on the half line: must refuse to converge
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate(lambda x, *_: 1.0 / (1.0 + x), HALF_LINE)
    assert math.isfinite(err.value.achieved)


def test_convergence_error_survives_pickling():
    # `exopoly verify` sends a float suite's error from its child process
    err = QuadratureConvergenceError("pair (0, 0)", 1.0, 2.0, 3)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is QuadratureConvergenceError
    assert str(back) == str(err) == "pair (0, 0) after 3 nodes (achieved estimate 1.0, last change 2.0)"
    assert (back.achieved, back.last_change, back.nodes) == (1.0, 2.0, 3)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_orthogonality_and_positivity():
    for case, params in REPRESENTATIVE.items():
        sys = build_system(case, params)
        for n in range(4):
            assert inner_product(sys, n, n) > 0
        norm0 = inner_product(sys, 0, 0)
        norm3 = inner_product(sys, 3, 3)
        cross = inner_product(sys, 0, 3)
        assert abs(cross) / math.sqrt(norm0 * norm3) < 1e-10


def test_classical_laguerre_norms_recovered():
    # at ell=0 the family is (alpha - n) L_n^(-alpha-1); dividing the frozen
    # scalar out must reproduce the classical norm Gamma(n - alpha)/n!
    alpha = F(-5, 2)
    sys = build_system(Case.L2, Params(0, alpha))
    for n in range(5):
        got = inner_product(sys, n, n) / float(alpha - n) ** 2
        want = math.gamma(n - float(alpha)) / math.factorial(n)
        assert abs(got - want) <= 1e-8 * want


def test_gram_reports():
    sys = build_system(Case.L2, Params(1, F(-2)))
    rep = gram(sys, 6)
    assert isinstance(rep, GramReport)
    assert rep.size == 6
    assert rep.max_offdiag < 1e-10
    for i in range(6):
        assert rep.matrix[i][i] == 1.0
        for j in range(6):
            assert abs(rep.matrix[i][j] - rep.matrix[j][i]) < 1e-13


def test_gram_nonconvergence_names_case_parameters_pair_and_nodes():
    # at N=16 the Horner noise of the Laguerre family members stalls normalized
    # entry (6, 15), the first in pair order, above the tolerance (ROADMAP item 1)
    sys = build_system(Case.L2, Params(1, F(-2)))
    with pytest.raises(QuadratureConvergenceError) as err:
        gram(sys, 16)
    msg = str(err.value)
    assert "case l2 (ell=1, alpha=-2, beta=None), pair (6, 15):" in msg
    assert f"after {err.value.nodes} nodes" in msg
    assert err.value.nodes >= 2 ** 14


def test_gram_tolerance_is_on_the_normalized_entry():
    # every entry is held to 1e-12 of sqrt(I_nn I_mm), the scale of the
    # normalized entry: at N=16 this extended Jacobi point settles at
    # tanh-sinh level 10, its largest off-diagonal at 2.7e-11
    sys = build_system(Case.EXTJ, Params(1, F(-3), F(-5, 6)))
    assert gram(sys, 16).max_offdiag < 1e-10


def test_gram_beyond_the_float_range_names_the_case():
    # admissible, but the l1 norms at alpha = 1000 overflow a float: an
    # OverflowError at the first level, with no warning on the way
    sys = build_system(Case.L1, Params(1, 1000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as err:
            gram(sys, 3)
    assert "case l1 (ell=1, alpha=1000, beta=None)" in str(err.value)
    assert "level 1" in str(err.value)


def test_gram_too_few_levels_names_the_case():
    with pytest.raises(ValueError, match=r"case l2 \(ell=1, alpha=-2, beta=None\): need at least two"):
        gram(build_system(Case.L2, Params(1, F(-2))), 1)


def test_gram_extj_includes_constant_ground_level():
    sys = build_system(Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)))
    rep = gram(sys, 5)
    # level-0 row: the constant function against every family member
    for j in range(1, 5):
        assert abs(rep.matrix[0][j]) < 1e-10
    assert rep.max_offdiag < 1e-10


def test_weight_positive_at_all_nodes():
    # the nodeless deforming function keeps the weight from ever flipping
    # sign; beyond eta ~ 745 the e^-eta factor underflows binary64 to an
    # exact 0.0, which is the closest representable value to the true
    # (positive) weight.  For the constant, Phi_0^2 = w / xi^2.
    from exopoly.polycore import ONE
    from exopoly.quadrature import _phi

    for case, params in REPRESENTATIVE.items():
        sys = build_system(case, params)
        nodes = [p for lv in range(1, 9) for p in _ts_points(sys.domain_eta, lv)]
        eta, d_lo, d_hi, _ = zip(*nodes)
        weight = [v * v for v in _phi(sys, [ONE], eta, d_lo, d_hi)[0]]
        assert all(map(math.isfinite, weight)), case
        assert all(w >= 0 for w in weight), case
        assert all(w > 0 for w, x in zip(weight, eta) if x < 700.0), case


def _product_integrand(sys, pn, pm):
    """weight * pn * pm / xi^2 in log space, straight from the exponents,
    with 1 - eta and 1 + eta taken as the node's distances from the ends."""
    s, a, b, c = (float(e) for e in (sys.weight.s, sys.weight.a, sys.weight.b, sys.weight.c))

    def log_abs(poly, eta):
        vals = sum(float(k) * eta**i for i, k in enumerate(poly.coeffs))
        return np.log(np.abs(vals)), np.sign(vals)

    def f(eta, d_lo, d_hi):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = s * eta
            if a:
                log_w = log_w + a * np.log(eta)
            if b:
                log_w = log_w + b * np.log(d_hi)
            if c:
                log_w = log_w + c * np.log(d_lo)
            ln_n, sg_n = log_abs(pn, eta)
            ln_m, sg_m = log_abs(pm, eta)
            ln_xi, _ = log_abs(sys.xi, eta)
            out = sg_n * sg_m * np.exp(log_w + ln_n + ln_m - 2.0 * ln_xi)
        return np.nan_to_num(out, nan=0.0)

    return f


@pytest.mark.parametrize("case, params, N", [
    *((case, params, 6) for case, params in REPRESENTATIVE.items()),
    (Case.EXTJ, Params(3, F(-2, 3), F(-9, 2)), 12),
])
def test_gram_matches_per_pair_integrals(case, params, N):
    # the shared rule against one adaptive integration per pair
    from exopoly.systems import level_poly

    sys = build_system(case, params)
    polys = [level_poly(sys, n) for n in range(N)]
    raw = {(i, j): integrate(_product_integrand(sys, polys[i], polys[j]), sys.domain_eta)
           for i in range(N) for j in range(i, N)}
    rep = gram(sys, N)
    for (i, j), val in raw.items():
        want = val / math.sqrt(raw[i, i] * raw[j, j])
        assert abs(rep.matrix[i][j] - want) <= 1e-11, (i, j)
        assert rep.matrix[j][i] == rep.matrix[i][j]


def test_gram_memory_stays_bounded(monkeypatch):
    # nodes are generated and Phi is evaluated in fixed-size blocks, so even
    # a run to the node cap (16,385 nodes on (-1, 1), forced by a zero
    # tolerance) stays small
    import tracemalloc

    monkeypatch.setattr(quadrature, "_RTOL", 0.0)
    sys = build_system(Case.J1, Params(0, F(2), F(-1, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureConvergenceError):
            gram(sys, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def test_defect_shrinks_with_refinement_then_plateaus():
    sys = build_system(Case.J1, Params(1, F(1, 2), F(-2)))
    defects = []
    for rtol in (1e-4, 1e-8, 1e-12):
        val = inner_product(sys, 0, 2, rtol=rtol)
        n0 = inner_product(sys, 0, 0, rtol=rtol)
        n2 = inner_product(sys, 2, 2, rtol=rtol)
        defects.append(abs(val) / math.sqrt(n0 * n2))
    assert defects[-1] < 1e-10
    assert min(defects) <= defects[0] + 1e-12


@pytest.mark.parametrize("case, params", REPRESENTATIVE.items())
def test_gram_matches_exact_node_reference(case, params, monkeypatch):
    # gram stops by tanh-sinh level 7 on each of these points; the reference
    # sums that level's rule with every level function exact at its nodes
    from exopoly.systems import level_poly

    sys = build_system(case, params)
    want = gram_reference(sys, 8)

    def worst():
        return max(abs(x - y) for row, ref in zip(gram(sys, 8).matrix, want) for x, y in zip(row, ref))

    assert worst() <= 1e-13
    seed_flipped_coeff(monkeypatch, level_poly(sys, 3))
    assert worst() > 1e-13


def test_gram_near_a_singular_end_matches_40_digit_quadrature():
    # (1 - eta)^(-1/3) weight: nodes within an ulp of eta = 1 carry weight;
    # dropping them put -3.3e-11 into this entry, where 40 digits give -6e-30
    mpmath = pytest.importorskip("mpmath")
    from exopoly.systems import level_poly

    sys = build_system(Case.EXTJ, Params(3, F(-2, 3), F(-9, 2)))
    w = sys.weight
    assert (w.s, w.a, w.b, w.c) == (0, 0, F(-1, 3), F(7, 2))
    with mpmath.workdps(40):
        def ev(poly, x):
            acc = mpmath.mpf(0)
            for k in reversed(poly.coeffs):
                acc = acc * x + mpmath.mpf(k.numerator) / k.denominator
            return acc

        def inner(p, q):
            return mpmath.quad(lambda x: (1 - x) ** (mpmath.mpf(-1) / 3) * (1 + x) ** 3.5
                               * ev(p, x) * ev(q, x) / ev(sys.xi, x) ** 2, [-1, 0, 1])

        p0, p1 = level_poly(sys, 0), level_poly(sys, 1)
        want = float(inner(p0, p1) / mpmath.sqrt(inner(p0, p0) * inner(p1, p1)))
    assert abs(want) < 1e-25
    assert abs(gram(sys, 12).matrix[0][1] - want) <= 1e-13
