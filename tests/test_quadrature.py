"""Quadrature rules and orthogonality of the deformed families."""

import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from exopoly.polycore import Interval, POS_INF
from exopoly.quadrature import (
    GramReport,
    QuadratureConvergenceError,
    gram,
    _ts_points,
)
from exopoly.systems import Case, Params, build_system
from exopoly.verify import REPRESENTATIVE

from oracles import inner_product, integrate

UNIT = Interval(F(0), F(1))
SYM = Interval(F(-1), F(1))
HALF_LINE = Interval(F(0), POS_INF)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def test_rule_invariants():
    # the step-2^-5 rule, refined level by level as gram sums it
    total = 0.0
    for level in range(1, 6):
        nodes, weights = _ts_points(UNIT, level)
        assert np.all(weights > 0)
        assert np.all((nodes > 0) & (nodes < 1))
        total = 0.5 * total + float(weights.sum())
    assert abs(total - 1.0) <= 1e-12


def test_finite_interval_examples():
    assert abs(integrate(lambda x: x, UNIT) - 0.5) <= 1e-14
    want = (2.0 / 3.0) * 2.0**1.5
    assert abs(integrate(lambda x: np.sqrt(1 - x), SYM) - want) <= 1e-12 * want


def test_half_line_decaying_integrand():
    assert abs(integrate(lambda x: np.exp(-x), HALF_LINE) - 1.0) <= 1e-10


def test_unsupported_combinations():
    with pytest.raises(ValueError, match="finite lower bound"):
        integrate(lambda x: np.exp(x), Interval(float("-inf"), F(0)))


def test_nonconvergence_reports_achieved_estimate():
    # logarithmically divergent on the half line: must refuse to converge
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate(lambda x: 1.0 / (1.0 + x), HALF_LINE)
    assert math.isfinite(err.value.achieved)


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
    # limit-circle point: the (1+eta)^(-1/2) weight factor defeats tanh-sinh
    sys = build_system(Case.J1, Params(0, F(2), F(-1, 2)))
    with pytest.raises(QuadratureConvergenceError) as err:
        gram(sys, 2)
    msg = str(err.value)
    assert "case j1 (ell=0, alpha=2, beta=-1/2), pair (0, 0):" in msg
    assert f"after {err.value.nodes} nodes" in msg
    assert err.value.nodes >= 2 ** 14


def test_gram_beyond_the_float_range_names_the_case():
    # admissible, but the l1 norms at alpha = 1000 overflow a float: an
    # OverflowError at the first level, with no numpy warning on the way
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
        nodes = np.concatenate([_ts_points(sys.domain_eta, lv)[0] for lv in range(1, 9)])
        weight = _phi(sys, [ONE])(nodes)[0] ** 2
        assert np.all(np.isfinite(weight)), case
        assert np.all(weight >= 0), case
        representable = nodes < 700.0
        assert np.all(weight[representable] > 0), case


def _product_integrand(sys, pn, pm):
    """weight * pn * pm / xi^2 in log space, straight from the exponents."""
    s, a, b, c = (float(e) for e in (sys.weight.s, sys.weight.a, sys.weight.b, sys.weight.c))

    def log_abs(poly, eta):
        vals = sum(float(k) * eta**i for i, k in enumerate(poly.coeffs))
        return np.log(np.abs(vals)), np.sign(vals)

    def f(eta):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = s * eta
            if a:
                log_w = log_w + a * np.log(eta)
            if b:
                log_w = log_w + b * np.log1p(-eta)
            if c:
                log_w = log_w + c * np.log1p(eta)
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


def test_gram_memory_stays_bounded():
    # Phi is evaluated in fixed-size node blocks, so even the run to the
    # node cap (26,141 nodes at this limit-circle point) stays small
    import tracemalloc

    sys = build_system(Case.J1, Params(0, F(2), F(-1, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureConvergenceError):
            gram(sys, 12)
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
