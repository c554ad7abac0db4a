"""Exact polynomial core: arithmetic and Sturm counting; and the
quasi-polynomial calculus that the test oracles run on."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exopoly.polycore import (
    ETA,
    IndeterminateRootCountError,
    Interval,
    NEG_INF,
    POS_INF,
    Poly,
    rat_str,
    sturm_count,
)
from exopoly.systems import Case, Params, build_system, exceptional_poly

from oracles import IncompatiblePrefactorError, QuasiPoly, quasi_extract


def quasi(body, s=0, a=0, b=0, c=0):
    """e^(s*eta) * eta^a * (1-eta)^b * (1+eta)^c times body."""
    return QuasiPoly(F(s), F(a), F(b), F(c), body)


fractions_small = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


def polys(max_degree=12):
    return st.lists(fractions_small, min_size=0, max_size=max_degree + 1).map(Poly)


X = sympy.Symbol("x")


def to_sympy(p):
    """The same polynomial as a sympy.Poly over QQ."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
                      or [0], X, domain="QQ")


def from_sympy(sp):
    return Poly([F(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())])


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_add_cancellation():
    assert Poly([2, 1]) + Poly([0, -1]) == Poly([2])


def test_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def test_exact_coefficient_subtraction():
    p = Poly([F(3, 8), F(1, 2), F(1, 2)])
    assert p - Poly([0, 0, F(1, 2)]) == Poly([F(3, 8), F(1, 2)])


def test_mul_degree_law():
    p, q = Poly([1, 2, 3]), Poly([F(1, 7), 0, 0, 5])
    assert (p * q).degree() == p.degree() + q.degree()


def test_divmod_roundtrip():
    p = Poly([1, -3, 0, 2, F(5, 3)])
    d = Poly([2, 1, 1])
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.degree() < d.degree()


def test_derivative_examples():
    assert Poly([7]).derivative() == Poly()
    assert Poly([2, 1]).derivative() == Poly([1])
    assert Poly([F(3, 8), F(1, 2), F(1, 2)]).derivative() == Poly([F(1, 2), 1])


def test_degree_drop_on_derivative():
    p = Poly([1, 2, 0, F(4, 9)])
    assert p.derivative().degree() == p.degree() - 1


def test_compose_neg():
    p = Poly([1, 2, 3, 4])
    assert p.compose_neg() == Poly([1, -2, 3, -4])
    x = F(5, 7)
    assert p.compose_neg()(x) == p(-x)


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_ring_operations_match_sympy(p, q):
    sp, sq = to_sympy(p), to_sympy(q)
    assert p + q == from_sympy(sp + sq)
    assert p - q == from_sympy(sp - sq)
    assert p * q == from_sympy(sp * sq)
    assert p.derivative() == from_sympy(sp.diff(X))
    assert p.compose_neg() == from_sympy(sympy.Poly(sp.as_expr().subs(X, -X), X, domain="QQ"))


@given(polys(), fractions_small)
@settings(max_examples=100, deadline=None)
def test_rational_evaluation_matches_sympy(p, x):
    want = to_sympy(p).eval(sympy.Rational(x.numerator, x.denominator))
    got = p(x)
    assert isinstance(got, F)
    assert got == F(int(want.p), int(want.q))


@given(polys(), polys(max_degree=6))
@settings(max_examples=100, deadline=None)
def test_divmod_matches_sympy(p, d):
    assume(not d.is_zero)
    sq, sr = to_sympy(p).div(to_sympy(d))
    assert p.divmod(d) == (from_sympy(sq), from_sympy(sr))
    assert p // d == from_sympy(sq) and p % d == from_sympy(sr)


@given(polys(), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_canonical_form_is_structural(p, k):
    # the same polynomial reached through different scalings is one value
    for scaled in ((p * k) * F(1, k), (p * F(1, k)) * k, Poly([c * k for c in p.coeffs]) * F(1, k)):
        assert scaled == p and hash(scaled) == hash(p)
        assert scaled.coeffs == p.coeffs
    assert all(type(c) is F for c in p.coeffs)


def test_canonical_form_examples():
    p = Poly(["2/4", "6/8", 0, 0])
    assert p == Poly([F(1, 2), F(3, 4)]) and hash(p) == hash(Poly([F(1, 2), F(3, 4)]))
    assert p.coeffs == (F(1, 2), F(3, 4)) and p.degree() == 1
    assert Poly([F(1, 3), F(2, 3)]) == Poly([1, 2]) * F(1, 3)
    zero = Poly([0, 0, 0])
    assert zero == Poly() and hash(zero) == hash(Poly()) and zero.degree() == -1
    assert (p - p).degree() == -1 and (p * 0).is_zero and p.coeffs and not (p - p).coeffs


# ---------------------------------------------------------------------------
# Sturm counting
# ---------------------------------------------------------------------------

POS_AXIS = Interval(F(0), POS_INF)
REALS = Interval(NEG_INF, POS_INF)


def test_no_real_roots_negative_discriminant():
    # eta^2 + 2 eta + 2: discriminant 4 - 8 < 0
    assert sturm_count(Poly([2, 2, 1]), POS_AXIS) == 0
    assert sturm_count(Poly([2, 2, 1]), REALS) == 0


def test_single_root_placement():
    p = Poly([2, 1])  # root at -2
    assert sturm_count(p, POS_AXIS) == 0
    assert sturm_count(p, Interval(F(-3), F(0))) == 1


def test_laguerre_like_quadratic_has_no_positive_roots():
    # discriminant (1/2)^2 - 4*(1/2)*(3/8) = 1/4 - 3/4 < 0
    p = Poly([F(3, 8), F(1, 2), F(1, 2)])
    assert sturm_count(p, POS_AXIS) == 0


def test_zero_poly_rejected():
    with pytest.raises(IndeterminateRootCountError):
        sturm_count(Poly(), REALS)


def test_distinct_roots_only():
    p = Poly([1, -1]) * Poly([1, -1]) * Poly([-3, 1])  # (1-eta)^2 (eta-3)
    assert sturm_count(p, REALS) == 2
    assert sturm_count(p, Interval(F(0), F(2))) == 1


def test_endpoint_root_flags():
    p = Poly([-2, 1])  # root at 2
    assert sturm_count(p, Interval(F(0), F(2))) == 0
    assert sturm_count(p, Interval(F(0), F(2), hi_closed=True)) == 1
    assert sturm_count(p, Interval(F(2), F(5))) == 0
    assert sturm_count(p, Interval(F(2), F(5), lo_closed=True)) == 1


def test_endpoint_root_with_interior_roots():
    # roots at 0, 1, 2: count inside (0, 2) is 1 regardless of flags on lo/hi
    p = Poly([0, 1]) * Poly([-1, 1]) * Poly([-2, 1])
    assert sturm_count(p, Interval(F(0), F(2))) == 1
    assert sturm_count(p, Interval(F(0), F(2), lo_closed=True, hi_closed=True)) == 3


@given(polys(max_degree=9))
@settings(max_examples=120, deadline=None)
def test_total_count_bounded_by_degree(p):
    assume(not p.is_zero)
    assert sturm_count(p, REALS) <= max(p.degree(), 0)


@given(polys(max_degree=7), st.fractions(min_value=-5, max_value=5, max_denominator=6))
@settings(max_examples=120, deadline=None)
def test_count_additive_over_partition(p, t):
    assume(not p.is_zero)
    assume(p(t) != 0)
    lo, hi = F(-9), F(9)
    assume(lo < t < hi)
    whole = sturm_count(p, Interval(lo, hi))
    left = sturm_count(p, Interval(lo, t))
    right = sturm_count(p, Interval(t, hi))
    assert whole == left + right


def _sympy_count(p, iv):
    """Distinct real roots in iv from sympy's closed-interval count_roots."""
    sp = to_sympy(p)
    lo = None if iv.lo == NEG_INF else sympy.Rational(iv.lo.numerator, iv.lo.denominator)
    hi = None if iv.hi == POS_INF else sympy.Rational(iv.hi.numerator, iv.hi.denominator)
    count = sp.count_roots(lo, hi)
    for bound, closed in ((lo, iv.lo_closed), (hi, iv.hi_closed)):
        if bound is not None and not closed and sp.eval(bound) == 0:
            count -= 1
    return count


# small and often zero coefficients: repeated roots and degree gaps of two or
# more in the remainder sequence, where a signed pseudo-remainder would flip
# the chain's signs
sparse_polys = st.lists(st.one_of(st.integers(-2, 2), fractions_small),
                        max_size=9).map(Poly)


@given(sparse_polys,
       st.fractions(min_value=-4, max_value=4, max_denominator=4),
       st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4),
       st.booleans(), st.booleans(), st.sampled_from(["finite", "lower", "upper"]))
@settings(max_examples=150, deadline=None)
def test_sturm_count_matches_sympy(p, lo, width, lo_closed, hi_closed, kind):
    assume(p.degree() >= 1)
    p = p if p.leading() < 0 else -p  # negative leading coefficient
    # roots on lo (a finite bound of every kind) and lo + width exercise the flags
    if lo_closed == hi_closed:
        p = p * Poly([-lo, 1])
    if lo_closed:
        p = p * Poly([-lo - width, 1])
    bounds = {"lower": (NEG_INF, lo), "upper": (lo, POS_INF), "finite": (lo, lo + width)}
    iv = Interval(*bounds[kind], lo_closed, hi_closed)
    assert sturm_count(p, iv) == _sympy_count(p, iv)


def _linear_power(root, k):
    out = Poly([1])
    for _ in range(k):
        out = out * Poly([-root, 1])
    return out


@pytest.mark.parametrize("p, iv, want", [
    # triple root inside (-1, 1): the remainder sequence ends in (eta - 1/3)^2
    (_linear_power(F(1, 3), 3) * Poly([F(1, 2), 1]) * Poly([1, 0, 1]),
     Interval(F(-1), F(1)), 2),
    # double root on an open, then on a closed endpoint
    (_linear_power(F(1), 2) * _linear_power(F(-1, 5), 2) * Poly([3, 1]),
     Interval(F(-1), F(1)), 1),
    (_linear_power(F(1), 2) * _linear_power(F(-1, 5), 2) * Poly([3, 1]),
     Interval(F(-1), F(1), hi_closed=True), 2),
    # half-infinite, a triple and a double root
    (_linear_power(F(2), 3) * _linear_power(F(-1), 2) * Poly([-5, 1]),
     Interval(F(0), POS_INF), 2),
    (_linear_power(F(2), 3) * _linear_power(F(-1), 2) * Poly([-5, 1]),
     Interval(F(-1), POS_INF, lo_closed=True), 3),
])
def test_sturm_count_of_repeated_roots_matches_sympy(p, iv, want):
    assert sturm_count(p, iv) == _sympy_count(p, iv) == want


CATALOGUE = Path(__file__).parents[1] / "perfbench" / "catalogue.json"


@pytest.mark.parametrize("n", [0, 8, 16])
@pytest.mark.parametrize("case", list(Case), ids=lambda case: case.value)
def test_sturm_count_at_exact_deep_size_matches_sympy(case, n):
    # the first ell = 4 point of the case among the benchmark's exact-deep
    # points: degree up to 21, coefficients of ~170 bits
    deep = json.loads(CATALOGUE.read_text())["deep"]
    e = next(e for e in deep if e["case"] == case.value and e["ell"] == 4)
    sys = build_system(case, Params(4, F(e["alpha"]), e["beta"] and F(e["beta"])))
    P, dom = exceptional_poly(sys, n), sys.domain_eta
    for iv in (dom, Interval(dom.lo, dom.hi, True, dom.hi != POS_INF), REALS):
        assert sturm_count(P, iv) == _sympy_count(P, iv), (sys.label, n, str(iv))


# ---------------------------------------------------------------------------
# evaluation: exact vs floating
# ---------------------------------------------------------------------------


@given(polys(), polys(), fractions_small)
@settings(max_examples=150, deadline=None)
def test_product_evaluation_homomorphism(p, q, x):
    assert (p * q)(x) == p(x) * q(x)


@given(polys(), polys())
@settings(max_examples=150, deadline=None)
def test_derivative_linearity(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()


@given(polys(), st.fractions(min_value=-4, max_value=4, max_denominator=16))
@settings(max_examples=200, deadline=None)
def test_float_eval_matches_exact_within_1e12(p, x):
    exact = p(x)
    # guard against catastrophic cancellation, where no fixed relative
    # tolerance is achievable in binary64
    magnitude = sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs))
    assume(abs(exact) >= F(1, 1000) * magnitude)
    assume(exact != 0)
    approx = p.float_values([float(x)])[0]
    assert abs(approx - float(exact)) <= 1e-12 * abs(float(exact))


# ---------------------------------------------------------------------------
# quasi-polynomials: the calculus of the substitution oracle in oracles.py
# ---------------------------------------------------------------------------


def test_quasi_derive_pure_exponential():
    q = quasi(Poly([1]), s=-1)
    d = q.derivative()
    assert d.prefactor == (F(-1), F(0), F(0), F(0))
    assert d.body == Poly([-1])


def test_quasi_derive_power_rule():
    a = F(5, 2)
    q = quasi(Poly([1]), a=a)
    d = q.derivative()
    assert d.prefactor == (F(0), a - 1, F(0), F(0))
    assert d.body == Poly([a])


def test_quasi_derive_product_rule():
    q = quasi(Poly([2, 1]), s=-1)
    d = q.derivative()
    assert d.prefactor == (F(-1), F(0), F(0), F(0))
    assert d.body == Poly([-1, -1])


def test_quasi_derive_hand_rule_two_powers():
    # d/deta [(1-eta)^b (1+eta)^c P] extracted over (1-eta)^(b-1)(1+eta)^(c-1)
    # must equal -b(1+eta)P + c(1-eta)P + (1-eta^2)P'
    b, c = F(7, 3), F(-1, 2)
    P = Poly([1, -4, F(2, 5)])
    d = quasi(P, b=b, c=c).derivative()
    got = quasi_extract(d, (0, 0, b - 1, c - 1))
    want = (
        Poly([1, 1]) * P * (-b)
        + Poly([1, -1]) * P * c
        + Poly([1, 0, -1]) * P.derivative()
    )
    assert got == want


def test_quasi_extract_examples():
    q = quasi(Poly([1]), s=-1, a=2)
    assert quasi_extract(q, (-1, 1, 0, 0)) == ETA

    P = Poly([3, 1])
    q2 = quasi(P, b=F(7, 2), c=1)
    assert quasi_extract(q2, (0, 0, F(7, 2), 0)) == Poly([1, 1]) * P

    with pytest.raises(IncompatiblePrefactorError):
        quasi_extract(quasi(P, s=-1), (1, 0, 0, 0))
    with pytest.raises(IncompatiblePrefactorError):
        quasi_extract(quasi(P, a=F(1, 2)), (0, 0, 0, 0))
    with pytest.raises(IncompatiblePrefactorError):
        quasi_extract(quasi(P, a=1), (0, 2, 0, 0))


def test_quasi_add_aligns_integer_gaps():
    q1 = quasi(Poly([1]), s=-1, a=F(5, 2))
    q2 = quasi(Poly([2]), s=-1, a=F(1, 2))
    tot = q1 + q2
    assert tot.prefactor == (F(-1), F(1, 2), F(0), F(0))
    assert tot.body == Poly([2, 0, 1])

    with pytest.raises(IncompatiblePrefactorError):
        quasi(Poly([1]), s=-1) + quasi(Poly([1]), s=1)
    with pytest.raises(IncompatiblePrefactorError):
        quasi(Poly([1]), a=F(1, 2)) + quasi(Poly([1]), a=0)


@given(polys(max_degree=6))
@settings(max_examples=80, deadline=None)
def test_quasi_derivative_reduces_to_poly_calculus(body):
    # with integer prefactor exponents the quasi derivative must agree with
    # differentiating the fully expanded polynomial
    q = quasi(body, a=1, b=2, c=1)
    d = q.derivative()
    expanded = ETA * Poly([1, -1]) * Poly([1, -1]) * Poly([1, 1]) * body
    assert quasi_extract(d, (0, 0, 0, 0)) == expanded.derivative()


def test_rat_str_prints_past_the_int_digit_limit():
    # CPython refuses str() of an int of more than 4,300 digits by default
    import sys

    values = [0, -7, 2**2000, -(2**2001 - 1), 10**4300, 10**9000 + 1,
              F(-10**5000 - 3, 7**6000), F(3, 10**4400), F(10**4400)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        want = [str(v) for v in values]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert [rat_str(v) for v in values] == want
