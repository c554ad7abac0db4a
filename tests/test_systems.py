"""System construction: deforming functions, eigenpolynomials, potentials."""

import json
import math
import random
import re
import statistics
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exopoly.classical import count_zeros_exact, jacobi, laguerre, predict_zero_count
from exopoly.polycore import Interval, NEG_INF, ONE, POS_INF, Poly, sturm_count
from exopoly.systems import (
    Case,
    NodelessnessError,
    ParameterError,
    Params,
    build_system,
    energy,
    exceptional_poly,
    family_energy,
    family_index,
    shifted_form_poly,
    level_poly,
    ode_residual,
    potential_eval,
    proportionality,
    wavefunction_eval,
)
from exopoly.verify import REPRESENTATIVE, grid_params, grid_systems

from oracles import (
    exact_at,
    extj_bilinear,
    j2_direct,
    mp_potential,
    mp_wavefunction,
    seed_flipped_coeff,
    substituted,
)

# canonical admissible parameter points per case, keyed by ell where needed
L2_ALPHAS = lambda ell: [F(-2 * ell - 1, 2), F(-3 * ell - 4, 3), F(-ell - 3)]
L1_ALPHAS = [F(-1, 2), F(1, 2), F(7, 3)]
J1_POINTS = lambda ell: [(F(1, 2), F(-2 * ell - 1, 2)), (F(0), F(-3 * ell - 4, 3)), (F(5, 3), F(-ell - 3))]
J2_POINTS = lambda ell: [(b, a) for (a, b) in J1_POINTS(ell)]
EXTJ_POINTS = {
    0: [(F(-3, 4), F(-5, 6)), (F(-5, 2), F(-5, 2))],
    1: [(F(-2), F(-3, 4)), (F(-3, 4), F(-2)), (F(-7, 4), F(-4, 5))],
    2: [(F(-5, 2), F(-5, 2)), (F(-7, 4), F(-7, 4)), (F(-9, 4), F(-13, 5))],
    3: [(F(-7, 2), F(-3, 4)), (F(-4, 5), F(-10, 3)), (F(-9, 2), F(-2, 3))],
}


def all_systems(ells=(1, 2, 3)):
    for ell in ells:
        for a in L2_ALPHAS(ell):
            yield build_system(Case.L2, Params(ell, a))
        for a in L1_ALPHAS:
            yield build_system(Case.L1, Params(ell, a))
        for a, b in J1_POINTS(ell):
            yield build_system(Case.J1, Params(ell, a, b))
        for a, b in J2_POINTS(ell):
            yield build_system(Case.J2, Params(ell, a, b))
        for a, b in EXTJ_POINTS[ell]:
            yield build_system(Case.EXTJ, Params(ell, a, b))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_l2_example():
    sys = build_system(Case.L2, Params(1, F(-2)))
    assert sys.xi == Poly([-1, -1])
    assert sys.xi_tilde_E == 4
    assert sys.domain_eta == Interval(F(0), POS_INF)


def test_build_l1_example():
    sys = build_system(Case.L1, Params(1, F(0)))
    assert sys.xi == Poly([1, 1])
    assert sys.xi_tilde_E == 4


def test_inadmissible_parameters_rejected():
    with pytest.raises(ParameterError, match="parameter constraint violated"):
        build_system(Case.J1, Params(1, F(0), F(-1, 2)))
    with pytest.raises(ParameterError):
        build_system(Case.L2, Params(2, F(-2)))
    with pytest.raises(ParameterError):
        build_system(Case.EXTJ, Params(2, F(-3, 2), F(-6, 5)))  # sign test fails
    with pytest.raises(ParameterError):
        build_system(Case.J1, Params(1, F(0)))  # beta missing
    for case, alpha in ((Case.L2, F(-2)), (Case.L1, F(1, 2))):
        with pytest.raises(ParameterError) as err:
            build_system(case, Params(1, alpha, F(7)))
        assert str(err.value) == f"parameter constraint violated: case {case.value} takes no beta"


@pytest.mark.parametrize("beta, shown", [
    (F(-8), "-8"), (F(-5, 2), "-5/2"), (F(-3, 4), "-3/4"), (-F(10) ** 5000, "-1" + "0" * 5000),
], ids=["-8", "-5/2", "-3/4", "-10^5000"])
def test_extj_sign_test_failure_names_the_case(beta, shown):
    with pytest.raises(ParameterError) as err:
        build_system(Case.EXTJ, Params(2, F(-2), beta))
    assert str(err.value) == ("parameter constraint violated: binomial sign test is zero "
                              f"(case extj; alpha=-2, beta={shown}, ell=2)")


@pytest.mark.parametrize("ell", [F(3, 2), 1.5, 2.0, "2", True, False, None])
def test_non_integer_degree_rejected(ell):
    with pytest.raises(ParameterError) as err:
        Params(ell, -3)
    # a rational prints as p/q, as in every other message; the rest by repr
    shown = "3/2" if isinstance(ell, F) else repr(ell)
    assert str(err.value) == f"parameter constraint violated: ell must be an integer >= 0, got {shown}"


@pytest.mark.parametrize("field, value", [
    ("alpha", "abc"), ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", "1/0"),
    ("beta", float("-inf")), ("beta", "x/2"), ("alpha", None),
])
def test_unreadable_rational_rejected(field, value):
    kwargs = {"alpha": F(1, 2), "beta": F(-2), field: value}
    with pytest.raises(ParameterError) as err:
        Params(1, **kwargs)
    assert str(err.value) == (f"parameter constraint violated: {field} must be a rational "
                              f"number, got {value!r}")


_NUMBERS = st.one_of(
    st.integers(-12, 12), st.booleans(), st.floats(), st.fractions(-12, 12, max_denominator=8),
    st.text("0123456789-+/. x", max_size=6),
)


@given(case=st.sampled_from(Case),
       # half the draws give ell an int, the other half another type
       ell=st.booleans().flatmap(lambda integer: st.integers(0, 6) if integer else st.one_of(
           st.booleans(), st.floats(0, 6), st.fractions(0, 6, max_denominator=4),
           st.integers(0, 6).map(str))),
       alpha=_NUMBERS, beta=st.none() | _NUMBERS)
@settings(max_examples=300, deadline=None)
def test_build_system_returns_or_rejects(case, ell, alpha, beta):
    # a system, or an admissibility or nodelessness error: nothing else
    try:
        sys = build_system(case, Params(ell, alpha, beta))
    except (ParameterError, NodelessnessError):
        return
    assert sys.params.ell == ell and isinstance(sys.params.alpha, F)


def test_parameters_too_long_to_print_build_or_fail_cleanly():
    # 20,001 digits, past CPython's 4,300-digit int-to-str limit: a passing
    # check formats no message, and a failing one prints the value exactly
    sys = build_system(Case.L1, Params(3, "1e20000"))
    assert sys.params.alpha == 10**20000
    assert sys.label == f"case l1 (ell=3, alpha=1{'0' * 20000}, beta=None)"
    with pytest.raises(ParameterError) as err:
        build_system(Case.L1, Params(3, "-1e20000"))
    assert str(err.value) == ("parameter constraint violated: alpha > -3/2 "
                              f"(case l1; got alpha=-1{'0' * 20000})")
    with pytest.raises(ParameterError, match="ell must be an integer >= 0, got -10{5000}$"):
        Params(-10**5000, 1)


def test_l1_nodelessness_is_authoritative():
    # printed bound admits alpha=-5/4 but xi = L_1^(-5/4)(-eta) has a root
    # at eta=1/4 inside the domain
    with pytest.raises(NodelessnessError) as err:
        build_system(Case.L1, Params(1, F(-5, 4)))
    assert str(err.value) == ("case l1 (ell=1, alpha=-5/4, beta=None): "
                              "deforming function has a zero in eta [0, inf)")
    # alpha=-1 puts the zero exactly at the eta=0 endpoint
    with pytest.raises(NodelessnessError) as err:
        build_system(Case.L1, Params(1, F(-1)))
    assert str(err.value) == ("case l1 (ell=1, alpha=-1, beta=None): "
                              "deforming function has a zero in eta [0, inf)")
    # and the flagged zone is annotated when it does pass (ell=0)
    sys = build_system(Case.L1, Params(0, F(-5, 4)))
    assert any("printed normalizability bound" in n for n in sys.notes)


def test_xi_equation_all_cases_and_degrees():
    for ell in (0, 1, 2, 3):
        count = 0
        for sys in all_systems(ells=(ell,)) if ell else _ell0_systems():
            resid = (
                sys.c2 * sys.xi.derivative().derivative()
                + sys.c1 * sys.xi.derivative()
                + sys.xi_tilde_E * sys.xi
            )
            assert resid.is_zero
            count += 1
        assert count


def _ell0_systems():
    for a in L2_ALPHAS(0):
        yield build_system(Case.L2, Params(0, a))
    for a in L1_ALPHAS:
        yield build_system(Case.L1, Params(0, a))
    for a, b in J1_POINTS(0):
        yield build_system(Case.J1, Params(0, a, b))
    for a, b in J2_POINTS(0):
        yield build_system(Case.J2, Params(0, a, b))
    for a, b in EXTJ_POINTS[0]:
        yield build_system(Case.EXTJ, Params(0, a, b))


def test_degenerate_deforming_function_is_flagged_not_fatal():
    # alpha + beta = -2 makes xi = P_1^(0,-2) collapse to a constant
    sys = build_system(Case.J1, Params(1, F(0), F(-2)))
    assert sys.xi == ONE
    assert any("degree-degenerate" in n for n in sys.notes)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def test_energy_examples():
    assert energy(build_system(Case.L2, Params(1, F(-2))), 0) == 4
    assert energy(build_system(Case.L1, Params(2, F(1, 2))), 3) == 26
    assert energy(build_system(Case.J1, Params(1, F(0), F(-2))), 0) == 8


# each case's E_n in closed form, stated apart from the polynomials in n that
# XSystem builds (j2's there comes from j1's through the mirror)
ENERGY_LITERALS = {
    Case.L2: lambda ell, a, b, n: 4 * (n - a - ell),
    Case.L1: lambda ell, a, b, n: 4 * (n + a + ell + 1),
    Case.J1: lambda ell, a, b, n: 4 * (n * (n + a - b + 1) - ell * (ell + a + b + 1) - b * (a + 1)),
    Case.J2: lambda ell, a, b, n: 4 * (n * (n + b - a + 1) - ell * (ell + a + b + 1) - a * (b + 1)),
    Case.EXTJ: lambda ell, a, b, n: 4 * (n * (n - a - b + 1) - ell * (ell + a + b + 1) - a - b),
}


def _off_grid_systems(per_case_and_ell=2, seed=11, ells=range(5), bound=60):
    """Seeded admissible points for every case and each of ``ells``: alpha
    and beta p/q with p in [-bound, bound] (extj: [-bound, -1], where it is
    admissible) and q in 1..6."""
    rng = random.Random(seed)
    out = []
    for case in Case:
        top = -1 if case is Case.EXTJ else bound
        for ell in ells:
            found = 0
            while found < per_case_and_ell:
                a, b = (F(rng.randint(-bound, top), rng.randint(1, 6)) for _ in range(2))
                try:
                    out.append(build_system(case, Params(ell, a, None if case.is_laguerre else b)))
                except (ParameterError, NodelessnessError):
                    continue
                found += 1
    return out


def test_family_energy_matches_closed_forms():
    grid = [build_system(case, params) for ell in range(5) for case in Case
            if not (case is Case.EXTJ and ell == 4) for params in grid_params(case, ell)]
    degenerate = [build_system(Case.J1, Params(1, F(0), F(-2))),
                  build_system(Case.J2, Params(1, F(-2), F(0)))]
    assert all(any("degree-degenerate" in note for note in s.notes) for s in degenerate)
    checked = set()
    for sys in grid + _off_grid_systems() + degenerate:
        p = sys.params
        for n in range(9):
            got = family_energy(sys, n)
            assert type(got) is F, (sys.label, n)
            assert got == ENERGY_LITERALS[sys.case](p.ell, p.alpha, p.beta, n), (sys.label, n)
        checked.add((sys.case, p.ell))
    assert checked == {(case, ell) for case in Case for ell in range(5)}
    with pytest.raises(ValueError, match="^family index must be nonnegative$"):
        family_energy(degenerate[1], -1)


@pytest.mark.parametrize("case, params, message", [
    (Case.J1, Params(1, F(-1, 2), F(-2)), "alpha > -1/2 (case j1; got alpha=-1/2)"),
    (Case.J1, Params(2, F(1, 2), F(-2)), "beta < -ell (case j1; got beta=-2, ell=2)"),
    (Case.J2, Params(1, F(-2), F(-1, 2)), "beta > -1/2 (case j2; got beta=-1/2)"),
    (Case.J2, Params(2, F(-2), F(1, 2)), "alpha < -ell (case j2; got alpha=-2, ell=2)"),
])
def test_j1_j2_bound_messages(case, params, message):
    with pytest.raises(ParameterError) as err:
        build_system(case, params)
    assert str(err.value) == f"parameter constraint violated: {message}"


def test_extj_level_indexing_and_positivity():
    sys = build_system(Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)))
    assert energy(sys, 0) == 0
    assert energy(sys, 1) == family_energy(sys, 0) == 36
    levels = [energy(sys, k) for k in range(8)]
    assert all(e2 > e1 for e1, e2 in zip(levels, levels[1:]))
    assert all(e > 0 for e in levels[1:])


def test_family_index_maps_levels_to_members():
    extj = build_system(Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)))
    assert [family_index(extj, k) for k in range(4)] == [None, 0, 1, 2]
    for case, params in REPRESENTATIVE.items():
        if case is not Case.EXTJ:
            assert [family_index(build_system(case, params), k) for k in range(4)] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="^level must be nonnegative$"):
        family_index(extj, -1)


def test_negative_level_is_rejected_as_a_level():
    # on extj level -1 would be family index -2: the error names the level
    for sys in (build_system(Case.EXTJ, Params(2, F(-5, 2), F(-5, 2))),
                build_system(Case.L2, Params(1, F(-2)))):
        for call in (level_poly, energy, lambda s, k: wavefunction_eval(s, k, 0.5)):
            with pytest.raises(ValueError, match="^level must be nonnegative$"):
                call(sys, -1)


@pytest.mark.parametrize("call, message", [
    (lambda sys: laguerre(2.5, 1), "degree must be an integer (got n=2.5)"),
    (lambda sys: laguerre(F(5, 2), 1), "degree must be an integer (got n=5/2)"),
    (lambda sys: jacobi(1.9, 0, 0), "degree must be an integer (got n=1.9)"),
    (lambda sys: predict_zero_count("laguerre", 2.5, "1/2"),
     "degree must be an integer (got n=2.5)"),
    (lambda sys: count_zeros_exact("jacobi", 2.5, "1/2", "1/2"),
     "degree must be an integer (got n=2.5)"),
    (lambda sys: energy(sys, 1.5), "level must be an integer (got level=1.5)"),
    (lambda sys: family_index(sys, 1.5), "level must be an integer (got level=1.5)"),
    (lambda sys: family_energy(sys, 0.5), "family index must be an integer (got n=0.5)"),
    (lambda sys: exceptional_poly(sys, 1.5), "family index must be an integer (got n=1.5)"),
], ids=["laguerre", "laguerre-fraction", "jacobi", "predict_zero_count", "count_zeros_exact",
        "energy", "family_index", "family_energy", "exceptional_poly"])
def test_a_degree_or_index_that_is_not_an_integer_is_rejected(call, message):
    # these once truncated (laguerre(2.5, 1) was L_2), evaluated a polynomial
    # in n off the spectrum (energy 10 at level 1.5 on l2 (1, -2)) or failed
    # deep inside the construction
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(build_system(Case.L2, Params(1, F(-2))))


def test_numpy_int_degrees_and_indices_pass():
    sys = build_system(Case.L2, Params(1, F(-2)))
    assert laguerre(np.int64(2), 1) == laguerre(2, 1)
    assert jacobi(np.int32(3), F(1, 2), F(-1, 3)) == jacobi(3, F(1, 2), F(-1, 3))
    assert predict_zero_count("laguerre", np.int64(2), "1/2").count == 2
    assert energy(sys, np.int64(2)) == energy(sys, 2) == 12
    assert exceptional_poly(sys, np.int64(1)) == exceptional_poly(sys, 1)

def test_spectra_increasing_and_positive_on_grid():
    for sys in all_systems():
        levels = [energy(sys, k) for k in range(9)]
        assert all(e2 > e1 for e1, e2 in zip(levels, levels[1:])), sys.case
        if sys.case is Case.EXTJ:
            # ground level sits exactly at zero; the family above it is positive
            assert levels[0] == 0
            assert all(e > 0 for e in levels[1:]), sys.case
        else:
            assert all(e > 0 for e in levels), sys.case


# ---------------------------------------------------------------------------
# eigenpolynomials
# ---------------------------------------------------------------------------


def test_l2_ell0_reduces_to_classical():
    alpha = F(-5, 2)
    sys = build_system(Case.L2, Params(0, alpha))
    for n in range(5):
        got = exceptional_poly(sys, n)
        assert got == (alpha - n) * laguerre(n, -alpha - 1)
        proportionality(got, laguerre(n, -alpha - 1))


def test_worked_polynomials():
    sys = build_system(Case.L2, Params(1, F(-2)))
    assert exceptional_poly(sys, 0) == Poly([2, 1])
    sysl1 = build_system(Case.L1, Params(1, F(0)))
    assert exceptional_poly(sysl1, 0) == Poly([2, 1])


def test_shifted_form_worked_cases():
    sys = build_system(Case.L2, Params(1, F(-2)))
    assert shifted_form_poly(sys, 0) == Poly([2, 1])
    sysl1 = build_system(Case.L1, Params(1, F(0)))
    assert shifted_form_poly(sysl1, 0) == Poly([2, 1])


def test_degree_law():
    for sys in all_systems():
        ell = sys.params.ell
        for n in range(6):
            got = exceptional_poly(sys, n).degree()
            want = ell + n + (1 if sys.case is Case.EXTJ else 0)
            assert got == want, (sys.case, sys.params, n)


def test_family_starts_at_degree_ell():
    for sys in all_systems(ells=(1, 2, 3)):
        if sys.case is Case.EXTJ:
            continue
        assert exceptional_poly(sys, 0).degree() == sys.params.ell


def test_shifted_form_equivalence_exact():
    for sys in all_systems():
        if sys.case is Case.EXTJ:
            continue
        for n in range(6):
            c = proportionality(exceptional_poly(sys, n), shifted_form_poly(sys, n))
            assert c != 0
            assert c == 1  # the frozen normalizations agree identically


def test_extj_bilinear_equals_reduced_form():
    for ell, pts in EXTJ_POINTS.items():
        if ell == 0:
            continue
        for a, b in pts:
            sys = build_system(Case.EXTJ, Params(ell, a, b))
            for n in range(5):
                assert extj_bilinear(sys, n) == exceptional_poly(sys, n)


def test_extj_node_law():
    unit = Interval(F(-1), F(1))
    for ell, pts in EXTJ_POINTS.items():
        if ell == 0:
            continue
        for a, b in pts:
            sys = build_system(Case.EXTJ, Params(ell, a, b))
            for n in range(5):
                assert sturm_count(exceptional_poly(sys, n), unit) == n + 1


def test_exact_laws_hold_across_the_admissible_region():
    # members n = 0-8: a zero residual; the degree law away from a
    # degree-degenerate xi; the node law by level (k zeros inside the domain
    # at level k, energies strictly increasing); and l1's ell further zeros
    # on (-inf, 0)
    left = Interval(NEG_INF, F(0))
    for sys in _off_grid_systems(12, 34, ells=range(7), bound=80):
        ell, degenerate = sys.params.ell, sys.xi.degree() < sys.params.ell
        for n in range(9):
            P, k, at = exceptional_poly(sys, n), n + (sys.case is Case.EXTJ), (sys.label, n)
            assert ode_residual(sys, n).is_zero, at
            assert degenerate or P.degree() == ell + k, at
            assert level_poly(sys, k) is P and sturm_count(P, sys.domain_eta) == k, at
            assert k == 0 or energy(sys, k - 1) < energy(sys, k), at
            if sys.case is Case.L1:
                assert sturm_count(P, left) == ell, at


def test_j2_is_mirror_of_j1():
    for ell in (1, 2, 3):
        for a, b in J1_POINTS(ell):
            j1 = build_system(Case.J1, Params(ell, a, b))
            j2 = build_system(Case.J2, Params(ell, b, a))
            for n in range(5):
                mirrored = exceptional_poly(j1, n).compose_neg()
                assert exceptional_poly(j2, n) == mirrored
                assert family_energy(j2, n) == family_energy(j1, n)


def test_j2_direct_derivation_cross_check():
    for ell in (1, 2, 3):
        for a, b in J2_POINTS(ell):
            sys = build_system(Case.J2, Params(ell, a, b))
            for n in range(5):
                sign = (-1) ** (ell + n + 1)
                assert j2_direct(sys, n) == sign * exceptional_poly(sys, n)


def test_proportionality_examples():
    p = Poly([2, 1])
    assert proportionality(p, p) == 1
    assert proportionality(Poly([4, 2]), p) == 2
    with pytest.raises(ValueError, match="not proportional"):
        proportionality(Poly([2, 1]), Poly([1, 1]))


def test_shifted_form_rejected_for_extj():
    sys = build_system(Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)))
    with pytest.raises(ValueError):
        shifted_form_poly(sys, 0)


# ---------------------------------------------------------------------------
# the eigen-equation residual
# ---------------------------------------------------------------------------


def test_worked_residual_instance():
    sys = build_system(Case.L2, Params(1, F(-2)))
    assert exceptional_poly(sys, 0) == Poly([2, 1])
    assert family_energy(sys, 0) == 4
    assert ode_residual(sys, 0).is_zero


def test_residual_at_degenerate_j1_point():
    sys = build_system(Case.J1, Params(1, F(0), F(-2)))
    for n in range(4):
        assert ode_residual(sys, n).is_zero


def test_residual_ell0_reduces_to_classical_equation():
    for sys in _ell0_systems():
        for n in (0, 2):
            assert ode_residual(sys, n).is_zero, (sys.case, sys.params)


def test_residual_zero_across_grid():
    for sys in all_systems():
        for n in range(6):
            assert ode_residual(sys, n).is_zero, (sys.case, sys.params, n)


def test_family_member_built_once_per_system():
    from exopoly.classical import _jacobi_cached, _laguerre_cached

    for case, params in ((Case.L2, Params(2, F(-7, 2))), (Case.J1, Params(1, F(1, 2), F(-2))),
                         (Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)))):
        sys = build_system(case, params)
        P = exceptional_poly(sys, 5)
        assert exceptional_poly(sys, 5) is P
        _jacobi_cached.cache_clear()
        _laguerre_cached.cache_clear()
        assert ode_residual(sys, 5).is_zero
        for cached in (_jacobi_cached, _laguerre_cached):
            assert cached.cache_info().misses == 0, (case, cached)
        assert build_system(case, params).__dict__.get("_family") is None


def test_residual_operator_equals_the_substitution():
    # A P'' + B P' + (C + E D) P, built once per system, must be the
    # QuasiPoly substitution itself for any stand-in P and any energy
    rng = random.Random(2718)
    # fresh systems at the grid points: verify.grid_systems yields the ones the
    # suites share, whose operator an earlier suite run may have built
    grid = [build_system(case, params)
            for ell in (0, 1, 2, 3) for case in Case for params in grid_params(case, ell)]
    # l1 at alpha=-1 and alpha=0: prefactor exponent alpha+1 of 0 and of 1,
    # where the substitution strips no power of eta and one power, not two
    extra = [build_system(Case.L1, Params(0, F(-1))), build_system(Case.L1, Params(1, F(0)))]
    for sys in [*grid, *extra]:
        assert "residual_operator" not in sys.__dict__  # built on first use only
        for _ in range(4):
            n = rng.randint(0, 8)
            P = Poly([F(rng.randint(-30, 30), rng.randint(1, 7))
                      for _ in range(rng.randint(1, 14))])
            want = substituted(sys, P, family_energy(sys, n))
            assert ode_residual(sys, n, P) == want, (sys.case, sys.params, n)
            A, B, C, D = sys.residual_operator
            E = F(rng.randint(-99, 99), rng.randint(1, 5))
            P1 = P.derivative()
            assert A * P1.derivative() + B * P1 + (C + E * D) * P == substituted(sys, P, E)
        assert sys.residual_operator is sys.residual_operator


# ---------------------------------------------------------------------------
# walls
# ---------------------------------------------------------------------------

CATALOGUE = Path(__file__).parents[1] / "perfbench" / "catalogue.json"


def catalogue_points():
    """The benchmark's 107 fixed and drawn points: (case, params, failing commands)."""
    data = json.loads(CATALOGUE.read_text())
    return [(Case(e["case"]), Params(e["ell"], F(e["alpha"]),
                                     None if e["beta"] is None else F(e["beta"])), e["fails"])
            for e in data["cli_fixed"] + data["cli_draws"]]


def test_wall_g_is_the_potentials_coefficient():
    # g = nu (nu - 1) from the exponents is (alpha + 1/2)(alpha + 3/2) at x = 0 and
    # (beta + 1/2)(beta + 3/2) at pi/2: the undeformed and the deformed nu both give it
    systems = [*grid_systems(ells=(0, 1, 2, 3)),
               *(build_system(case, params) for case, params, _ in catalogue_points())]
    assert len(systems) == 60 + 107
    for sys in systems:
        a, b = sys.params.alpha, sys.params.beta
        want = [(0.0, (a + F(1, 2)) * (a + F(3, 2)))]
        if not sys.case.is_laguerre:
            want.append((math.pi / 2, (b + F(1, 2)) * (b + F(3, 2))))
        assert [(w.x, w.g) for w in sys.walls] == want, sys.label
        assert all(type(w.nu) is F and w.g == w.nu * (w.nu - 1) for w in sys.walls)
        assert sys.walls is sys.walls


def test_catalogue_wall_classes():
    # by the smallest nu: nu >= 3/2 at every wall (limit-point), a wall with
    # 1/2 < nu < 3/2 (limit-circle, the paper's solution the principal one), or a
    # wall with nu <= 1/2; the recorded spectrum failures fall in the last two
    classes, spectrum_fails = Counter(), Counter()
    for case, params, fails in catalogue_points():
        nu = min(w.nu for w in build_system(case, params).walls)
        cls = ">= 3/2" if nu >= F(3, 2) else "(1/2, 3/2)" if nu > F(1, 2) else "<= 1/2"
        classes[cls] += 1
        spectrum_fails[cls] += "spectrum" in fails
    assert classes == {">= 3/2": 85, "(1/2, 3/2)": 11, "<= 1/2": 11}
    assert spectrum_fails == {">= 3/2": 0, "(1/2, 3/2)": 4, "<= 1/2": 11}


# ---------------------------------------------------------------------------
# potentials and wave functions
# ---------------------------------------------------------------------------


def test_l2_ell0_potential_closed_form():
    alpha = F(-5, 2)
    sys = build_system(Case.L2, Params(0, alpha))
    g = float((alpha + F(1, 2)) * (alpha + F(3, 2)))
    for x in (0.17, 0.9, 2.4, 5.0):
        want = x * x + g / (x * x) - 2 * float(alpha)
        got = potential_eval(sys, x)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_l2_potential_matches_direct_rational_form(monkeypatch):
    alpha, ell = F(-2), 1
    sys = build_system(Case.L2, Params(ell, alpha))
    a = float(alpha)
    xs = [0.33, 1.0, 2.2, 3.7]
    explicit = []
    for x in xs:
        eta = x * x
        r = exact_at(sys.xi.derivative(), eta) / exact_at(sys.xi, eta)
        explicit.append(x * x + (a + 0.5) * (a + 1.5) / (x * x)
                        + 8 * r * (eta * (r - 1) + a + 0.5) + 2 * (2 * ell - a))

    def worst():
        return max(abs(g - e) / max(1.0, abs(e)) for g, e in zip(potential_eval(sys, xs), explicit))

    assert worst() <= 1e-12
    seed_flipped_coeff(monkeypatch, sys.xi)
    assert worst() > 1e-12


def test_j1_potential_finite_inside():
    sys = build_system(Case.J1, Params(1, F(1, 2), F(-2)))
    v = potential_eval(sys, math.pi / 4)
    assert math.isfinite(v)


def test_out_of_domain_rejected():
    # the open x-domain of each kind, from its walls: rejected at and beyond them
    for case, params, outside, inside, domain in (
        (Case.J1, Params(1, F(1, 2), F(-2)), (-0.1, 0.0, math.pi / 2, 2.0), 0.5,
         "(0.0, 1.5707963267948966)"),
        (Case.L2, Params(1, F(-2)), (0.0, -0.1), 1e3, "(0.0, inf)"),
    ):
        sys = build_system(case, params)
        for x in outside:
            message = re.escape(f"x={x} outside the open physical domain {domain}")
            with pytest.raises(ValueError, match=message):
                potential_eval(sys, x)
            with pytest.raises(ValueError, match=message):
                wavefunction_eval(sys, 0, x)
        assert math.isfinite(potential_eval(sys, inside))
        assert math.isfinite(wavefunction_eval(sys, 0, inside))


def test_extj_ground_state_assembly(monkeypatch):
    sys = build_system(Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)))
    assert level_poly(sys, 0) == ONE
    xs = [0.3, 0.8, 1.2]
    want = [2 * math.sin(x) ** 2 * (2 * math.cos(x) ** 2) / exact_at(sys.xi, math.cos(2 * x))
            for x in xs]

    def worst():
        return max(abs(g - w) / abs(w) for g, w in zip(wavefunction_eval(sys, 0, xs), want))

    assert worst() <= 1e-13
    seed_flipped_coeff(monkeypatch, ONE)
    assert worst() > 1e-13


def test_l2_wavefunction_small_x_asymptote():
    sys = build_system(Case.L2, Params(1, F(-2)))
    x = 1e-5
    val = wavefunction_eval(sys, 0, x)
    assert val < 0
    assert abs(val - (-2 * x**1.5)) <= 1e-6 * 2 * x**1.5


def test_wavefunctions_finite_on_grid():
    for sys in all_systems(ells=(1, 2)):
        hi = 3.0 if sys.case.is_laguerre else math.pi / 2 - 0.05
        for k in range(3):
            for t in (0.1, 0.45, 0.8):
                x = 0.05 + t * hi
                assert math.isfinite(wavefunction_eval(sys, k, x))


# each case's c2_sign, Q, xi_tilde_E and weight exponents (s, a, b, c) in closed
# form, stated apart from the W0 exponents and prefactor that XSystem derives them from
CASE_LITERALS = {
    Case.L2: lambda ell, a, b: (1, [-2 * a - 1, 2], 4 * ell, (-1, -(a + 1), 0, 0)),
    Case.L1: lambda ell, a, b: (-1, [-2 * a - 1, -2], 4 * ell, (-1, a + 1, 0, 0)),
    Case.J1: lambda ell, a, b: (1, [2 * (a - b), 2 * (a + b + 1)], 4 * ell * (ell + a + b + 1),
                                (0, 0, a + 1, -(b + 1))),
    Case.J2: lambda ell, a, b: (1, [2 * (a - b), 2 * (a + b + 1)], 4 * ell * (ell + a + b + 1),
                                (0, 0, -(a + 1), b + 1)),
    Case.EXTJ: lambda ell, a, b: (1, [2 * (a - b), 2 * (a + b + 1)], 4 * ell * (ell + a + b + 1),
                                  (0, 0, -(a + 1), -(b + 1))),
}


def test_weight_exponent_displays():
    for case, params in REPRESENTATIVE.items():
        sys = build_system(case, params)
        sign, Q, xi_tilde_E, weight = CASE_LITERALS[case](params.ell, params.alpha, params.beta)
        eta_dot2, eta_ddot = ((Poly([0, 4]), Poly([2])) if case.is_laguerre
                              else (Poly([4, 0, -4]), Poly([0, -4])))
        assert (sys.eta_dot2, sys.eta_ddot) == (eta_dot2, eta_ddot), case
        assert sys.c2_sign == sign, case
        assert sys.Q == Poly(Q), case
        assert sys.c1 == (eta_ddot - 2 * Poly(Q)) * sign, case
        assert sys.c2 == eta_dot2 * sign, case
        assert sys.xi_tilde_E == xi_tilde_E, case
        w = sys.weight
        assert (w.s, w.a, w.b, w.c) == weight, case


def test_high_degree_stress():
    # beyond the standard grids: ell up to 5, n up to 8 (polynomial degrees
    # to 13), still exactly zero residuals and exact laws
    stress = [
        (Case.L2, Params(5, F(-17, 3))),
        (Case.L1, Params(5, F(9, 7))),
        (Case.J1, Params(4, F(3, 4), F(-29, 6))),
        (Case.J2, Params(4, F(-29, 6), F(3, 4))),
        (Case.EXTJ, Params(4, F(-25, 4), F(-19, 4))),
    ]
    unit = Interval(F(-1), F(1))
    for case, params in stress:
        sys = build_system(case, params)
        for n in range(9):
            P = exceptional_poly(sys, n)
            assert ode_residual(sys, n).is_zero, (case, n)
            want = params.ell + n + (1 if case is Case.EXTJ else 0)
            assert P.degree() == want, (case, n)
            if case is Case.EXTJ:
                assert sturm_count(P, unit) == n + 1, (case, n)
            else:
                assert proportionality(P, shifted_form_poly(sys, n)) == 1


def test_schrodinger_equation_pointwise_oracle():
    """High-precision check that -phi'' + V phi = E phi at sample points.

    The wave function is reassembled in mpmath arithmetic and differentiated
    numerically at 40 digits, fully independently of the residual algebra;
    only V comes from the binary64 evaluator (so ~1e-13 relative floor).
    """
    mpmath.mp.dps = 40

    cases = [
        (Case.L2, Params(1, F(-2)), 1.1),
        (Case.L1, Params(1, F(1, 2)), 0.9),
        (Case.J1, Params(1, F(1, 2), F(-2)), 0.7),
        (Case.J2, Params(1, F(-2), F(1, 2)), 0.8),
        (Case.EXTJ, Params(2, F(-5, 2), F(-5, 2)), 0.6),
    ]
    for case, params, x0 in cases:
        sys = build_system(case, params)
        for level in (0, 2):
            E = float(energy(sys, level))
            phi = lambda t: mp_wavefunction(sys, level, t)
            d2 = float(mpmath.diff(phi, mpmath.mpf(x0), 2))
            v = potential_eval(sys, x0)
            p0 = float(phi(mpmath.mpf(x0)))
            resid = -d2 + v * p0 - E * p0
            scale = max(abs(v * p0), abs(E * p0), 1.0)
            assert abs(resid) <= 1e-9 * scale, (case, level, resid, scale)
            # the float evaluator agrees with the high-precision assembly
            assert abs(wavefunction_eval(sys, level, x0) - p0) <= 1e-12 * max(abs(p0), 1e-30)


def _worst(got, ref):
    """max |got - ref| / (|ref| + median |ref|) over one column of values: the
    median term keeps a zero of a wave function from asking relative accuracy."""
    scale = statistics.median(map(abs, ref))
    return max(abs(g - r) / (abs(r) + scale) for g, r in zip(got, ref))


def _references(sys, xs, levels):
    """V, then psi of each level, at the nodes xs: 40-digit mpmath, rounded."""
    with mpmath.workdps(40):
        return [[float(mp_potential(sys, x)) for x in xs]] + [
            [float(mp_wavefunction(sys, level, x)) for x in xs] for level in levels]


def test_array_eval_matches_mpmath_on_representative_points():
    """V and psi_0..3 over 200 interior nodes against 40-digit mpmath.

    V is recomputed independently as E0 + phi0''/phi0.  Each column is judged
    against |reference| plus its median magnitude, so a node of a wave
    function does not demand relative accuracy at a zero.
    """
    from exopoly.spectral import default_grid
    from exopoly.verify import REPRESENTATIVE

    for case, params in REPRESENTATIVE.items():
        sys = build_system(case, params)
        xs = np.asarray(default_grid(sys, 200).interior())
        got = [potential_eval(sys, xs)] + [wavefunction_eval(sys, k, xs) for k in range(4)]
        for col, (g, r) in enumerate(zip(got, _references(sys, xs.tolist(), range(4)))):
            assert _worst(g, r) <= 1e-10, (case, col)


def test_array_with_out_of_domain_node_names_it():
    sys = build_system(Case.L2, Params(1, F(-2)))
    xs = np.array([0.5, 1.0, -0.25, 2.0, 0.0])
    with pytest.raises(ValueError, match=r"x=-0\.25 outside"):
        potential_eval(sys, xs)
    with pytest.raises(ValueError, match=r"x=-0\.25 outside"):
        wavefunction_eval(sys, 1, xs)


def test_scalar_input_returns_float():
    xs = np.array([0.3, 0.7, 1.1])
    for sys in (build_system(Case.L2, Params(1, F(-2))),
                build_system(Case.J1, Params(1, F(1, 2), F(-2)))):
        for evaluate in (lambda x: potential_eval(sys, x),
                         lambda x: wavefunction_eval(sys, 2, x)):
            assert type(evaluate(0.7)) is float
            values = evaluate(xs)
            assert type(values) is list and len(values) == len(xs)
            # node for node, the sequence call does the scalar call's arithmetic
            assert values == [evaluate(x) for x in xs.tolist()]


# the five representative points and three with ell = 3, deeper deforming functions
BIT_POINTS = [
    *REPRESENTATIVE.items(),
    (Case.L2, Params(3, F(-13, 3))),
    (Case.J1, Params(3, F(5, 3), F(-6))),
    (Case.EXTJ, Params(3, F(-7, 2), F(-3, 4))),
]


def _hex(values):
    return [float(v).hex() for v in values]


def test_float_evaluation_matches_40_digit_reference(monkeypatch):
    # 25 nodes, first to last, of both spectral grids and of the 2000-point
    # plotdata grid; each column must fail with one float coefficient flipped
    from exopoly.spectral import default_grid

    for case, params in BIT_POINTS:
        sys = build_system(case, params)
        grid = default_grid(sys)
        step = (grid.x_max - grid.x_min) / 1999
        plot = [grid.x_min + k * step for k in range(2000)]
        for nodes in (grid.interior(), grid.coarse().interior(), plot):
            xs = [nodes[round(i * (len(nodes) - 1) / 24)] for i in range(25)]
            ref = _references(sys, xs, range(5))
            got = [potential_eval(sys, xs)] + [wavefunction_eval(sys, level, xs) for level in range(5)]
            for col, (g, r) in enumerate(zip(got, ref)):
                assert _worst(g, r) <= 1e-12, (case, col)
            for col, poly in enumerate([sys.xi] + [level_poly(sys, level) for level in range(5)]):
                with monkeypatch.context() as m:
                    seed_flipped_coeff(m, poly)
                    seeded = potential_eval(sys, xs) if col == 0 else wavefunction_eval(sys, col - 1, xs)
                    assert _worst(seeded, ref[col]) > 1e-12, (case, col)


def test_wall_nodes_ieee_outcomes_and_40_digit_reference(monkeypatch):
    # x^2 (or sin^2 x) underflows to 0.0 at the first two nodes, so the
    # undeformed term g/0 is +inf, -inf or nan by the sign of g; a Python
    # float division by zero would raise there.  At 1e-160 eta is subnormal
    # or V overflows, so only 1e-5 is held to the reference
    points = [
        (Case.L2, Params(1, F(-2)), "inf"),          # g = 3/4
        (Case.L1, Params(0, F(-1)), "-inf"),         # g = -1/4
        (Case.L1, Params(1, F(-1, 2)), "nan"),       # g = 0
        (Case.J1, Params(1, F(1, 2), F(-2)), "inf"),
    ]
    xs = [5e-324, 1e-200, 1e-160, 1e-5]
    for case, params, at_wall in points:
        sys = build_system(case, params)
        got = potential_eval(sys, xs)
        assert _hex(got) == _hex(potential_eval(sys, x) for x in xs), case
        assert [str(v) for v in got[:2]] == [at_wall] * 2, case
        ref = _references(sys, xs[3:], [1])
        assert _worst(got[3:], ref[0]) <= 1e-12, case
        assert _worst(wavefunction_eval(sys, 1, xs[2:])[1:], ref[1]) <= 1e-12, case
        if sys.xi.degree():  # at ell = 0 xi is constant, and V reads no polynomial
            with monkeypatch.context() as m:
                seed_flipped_coeff(m, sys.xi)
                assert _worst(potential_eval(sys, xs[3:]), ref[0]) > 1e-12, case
        with monkeypatch.context() as m:
            seed_flipped_coeff(m, level_poly(sys, 1))
            assert _worst(wavefunction_eval(sys, 1, xs[3:]), ref[1]) > 1e-12, case
