"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The exact suites run over the canonical admissible grids of exopoly.verify;
the numeric suites use the documented representative points and truncations.
"""

import math
import time
from fractions import Fraction as F

from exopoly.classical import laguerre
from exopoly.polycore import Poly
from exopoly.quadrature import gram
from exopoly.spectral import compare_spectrum, default_grid
from exopoly.systems import (
    Case,
    Params,
    build_system,
    exceptional_poly,
    family_energy,
    ode_residual,
    potential_eval,
    proportionality,
)
from exopoly.verify import (
    REPRESENTATIVE,
    grid_params,
    grid_systems,
    run_suite,
)

from oracles import inner_product, j2_direct


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{suffix}")


def test_criterion_1_identities():
    t0 = time.monotonic()
    out = run_suite("identities")
    elapsed = time.monotonic() - t0
    ok = out.passed and elapsed < 5.0
    _report(1, "identity suite", ok,
            f"{out.checked} identity instances, {elapsed:.2f}s")
    assert out.passed, out.details
    assert elapsed < 5.0


def test_criterion_2_xi_equation():
    t0 = time.monotonic()
    out = run_suite("xi-equation")
    elapsed = time.monotonic() - t0
    ok = out.passed and elapsed < 1.0
    _report(2, "deforming-function equation", ok,
            f"{out.checked} systems, {elapsed:.2f}s")
    assert out.passed, out.details
    assert elapsed < 1.0


def test_criterion_3_ode_residual():
    sys = build_system(Case.L2, Params(1, F(-2)))
    worked = (
        exceptional_poly(sys, 0) == Poly([2, 1])
        and family_energy(sys, 0) == 4
        and ode_residual(sys, 0).is_zero
    )
    out = run_suite("ode-residual")
    ok = worked and out.passed
    _report(3, "eigen-equation residuals", ok,
            f"{out.checked} residuals + worked instance")
    assert worked
    assert out.passed, out.details


def test_criterion_4_shifted_form_equivalence():
    out = run_suite("shifted-form")
    _report(4, "bilinear-form equivalence", out.passed, f"{out.checked} pairs")
    assert out.passed, out.details


def test_criterion_5_degree_and_node_laws():
    out = run_suite("degree-node")
    _report(5, "degree and node laws", out.passed, f"{out.checked} polynomials")
    assert out.passed, out.details


def test_criterion_6_zero_count_oracle():
    t0 = time.monotonic()
    out = run_suite("zero-count")
    elapsed = time.monotonic() - t0
    ok = out.passed and elapsed < 10.0
    _report(6, "zero-count oracle agreement", ok,
            f"{out.checked} parameter points, {elapsed:.2f}s")
    assert out.passed, out.details
    assert elapsed < 10.0
    # the ambiguous middle branch is oracle-only: report, never compare
    from exopoly.classical import predict_zero_count

    pred = predict_zero_count("laguerre", 4, F(-5, 2))
    assert pred.oracle_resolved and pred.readings is not None


def test_criterion_7_orthogonality():
    t0 = time.monotonic()
    worst = 0.0
    for case, params in REPRESENTATIVE.items():
        rep = gram(build_system(case, params), 8)
        worst = max(worst, rep.max_offdiag)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    _report(7, "orthogonality (8 levels, 5 cases)", ok,
            f"max off-diagonal {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 60.0


def test_criterion_8_spectra():
    t0 = time.monotonic()
    worst = 0.0
    reports = {}
    for case, params in REPRESENTATIVE.items():
        sys = build_system(case, params)
        rep = compare_spectrum(sys, 5, default_grid(sys, 4000))
        reports[case] = rep
        worst = max(worst, rep.max_error)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    _report(8, "finite-difference spectra", ok,
            f"worst level error {worst:.2e}, {elapsed:.1f}s")
    # spot-check the closed forms themselves
    assert [int(a) for a in reports[Case.L2].analytic] == [4, 8, 12, 16, 20]
    assert [int(a) for a in reports[Case.L1].analytic] == [10, 14, 18, 22, 26]
    assert reports[Case.EXTJ].analytic[0] == 0
    assert worst < 1e-3
    assert elapsed < 30.0


def test_criterion_9_classical_reductions():
    alpha = F(-5, 2)
    sys = build_system(Case.L2, Params(0, alpha))
    ok_prop = all(
        proportionality(exceptional_poly(sys, n), laguerre(n, -alpha - 1)) == alpha - n
        for n in range(6)
    )
    ok_norm = True
    for n in range(5):
        got = inner_product(sys, n, n) / float(alpha - n) ** 2
        want = math.gamma(n - float(alpha)) / math.factorial(n)
        ok_norm = ok_norm and abs(got - want) <= 1e-8 * want
    g = float((alpha + F(1, 2)) * (alpha + F(3, 2)))
    ok_pot = True
    for x in (0.2, 0.7, 1.3, 2.9, 5.5):
        want = x * x + g / (x * x) - 2 * float(alpha)
        ok_pot = ok_pot and abs(potential_eval(sys, x) - want) <= 1e-12 * abs(want)
    ok = ok_prop and ok_norm and ok_pot
    _report(9, "classical reductions at ell=0", ok)
    assert ok_prop
    assert ok_norm
    assert ok_pot


def test_criterion_10_mirror_symmetry():
    checked = 0
    ok = True
    for ell in (1, 2, 3):
        for params in grid_params(Case.J2, ell):
            sys = build_system(Case.J2, params)
            for n in range(6):
                sign = (-1) ** (ell + n + 1)
                ok = ok and (j2_direct(sys, n) == sign * exceptional_poly(sys, n))
                checked += 1
    _report(10, "mirror construction agreement", ok, f"{checked} polynomials")
    assert ok
