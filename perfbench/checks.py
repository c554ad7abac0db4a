"""Output checks.  Each returns None when the output is right, or a one-line
reason when it is not; a fast wrong answer is a failed operation.

Exact outputs are compared with digests recorded in ``catalogue.json``.
Float outputs are compared with independent references: ``ortho`` with the
identity matrix, ``spectrum`` with the exact energies recorded in the
catalogue, and sampled ``plotdata`` rows with an ``mpmath``
evaluation of the same exact polynomials.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction

import points

ORTHO_TOL = 1e-10      # largest normalized off-diagonal Gram entry
SPECTRUM_TOL = 1e-3    # relative eigenvalue error (absolute for a zero level)
# plotdata: |float - reference| <= PLOT_RTOL * (|reference| + column scale),
# where the column scale is the median |reference| among the sampled rows, so
# values near a node of a wave function are judged against its typical size
PLOT_RTOL = 1e-10
PLOT_SAMPLES = 11      # rows 0, 1/10, ..., 10/10 of the way through the grid
PLOT_DPS = 40


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON ({exc})"


def verify_summary(report) -> list:
    return [[o["suite"], o["passed"], o["checked"], o["failures"]] for o in report]


def check_verify(code: int, stdout: str, expected: list):
    report, err = _json(stdout)
    if err:
        return err
    summary = verify_summary(report)
    if summary != expected:
        bad = [s for s in summary if s not in expected]
        return f"verify summary differs from the recorded one: {bad or summary}"
    if code != 0:
        return f"exit code {code}"
    return None


def check_construct(code: int, stdout: str, expected_digest: str):
    if code != 0:
        return f"exit code {code}"
    report, err = _json(stdout)
    if err:
        return err
    if points.construct_digest(report) != expected_digest:
        return "construct coefficients or energies differ from the recorded digest"
    return None


def check_ortho(code: int, stdout: str, size: int):
    if code != 0:
        return f"exit code {code}"
    report, err = _json(stdout)
    if err:
        return err
    g = report["gram"]
    if len(g) != size or any(len(row) != size for row in g):
        return f"Gram matrix is not {size}x{size}"
    worst = max(abs(g[i][j]) for i in range(size) for j in range(size) if i != j)
    if not worst < ORTHO_TOL or any(g[i][i] != 1.0 for i in range(size)):
        return f"Gram matrix off identity: largest off-diagonal {worst:.3e}"
    return None


def check_spectrum(code: int, stdout: str, energies: list):
    """``energies`` are the exact level energies, as p/q strings."""
    if code != 0:
        return f"exit code {code}"
    report, err = _json(stdout)
    if err:
        return err
    levels = report["levels"]
    if len(levels) != len(energies):
        return f"{len(levels)} levels reported, {len(energies)} expected"
    for lv, exact in zip(levels, energies):
        e = float(Fraction(exact))
        num = lv["numeric"]
        error = abs(num - e) if e == 0.0 else abs(num - e) / abs(e)
        if not error < SPECTRUM_TOL:
            return f"level {lv['level']}: numeric {num!r} vs exact {exact}, error {error:.3e}"
    return None


# ---------------------------------------------------------------------------
# plotdata oracle
# ---------------------------------------------------------------------------


def _prefactor_exponents(case: str, alpha: Fraction, beta):
    """Exponents of the eigenfunction prefactor, from the paper's formulas:
    e^(s eta) x^p for the radial cases (eta = x^2), (1-eta)^b (1+eta)^c for
    the trigonometric ones (eta = cos 2x)."""
    half = Fraction(1, 2)
    if case == "l2":
        return Fraction(-1, 2), -(alpha + half)
    if case == "l1":
        return Fraction(-1, 2), alpha + Fraction(3, 2)
    b = -(alpha + half) / 2
    c = -(beta + half) / 2
    if case == "j1":
        b = (alpha + Fraction(3, 2)) / 2
    elif case == "j2":
        c = (beta + Fraction(3, 2)) / 2
    return b, c


def check_plotdata(code: int, stdout: str, point, construct_report: dict,
                   rows_expected: int, nmax: int = 3):
    """Sampled rows against mpmath.  The exact polynomials come from the
    ``construct`` report of the same point, whose digest was checked."""
    if code != 0:
        return f"exit code {code}"
    import mpmath

    case, _, alpha, beta = point
    alpha = Fraction(alpha)
    beta = None if beta is None else Fraction(beta)
    lines = stdout.splitlines()
    header = ["x", "V"] + [f"phi{k}" for k in range(nmax + 1)]
    if not lines or lines[0].split(",") != header:
        return "unexpected CSV header"
    rows = lines[1:]
    if len(rows) != rows_expected:
        return f"{len(rows)} rows, {rows_expected} expected"
    levels = construct_report["levels"]
    if len(levels) <= nmax:
        return "construct report lacks the plotted levels"
    with mpmath.workdps(PLOT_DPS):
        mpq = lambda q: mpmath.mpf(Fraction(q).numerator) / Fraction(q).denominator  # noqa: E731

        def poly(coeffs):
            cs = [mpq(c) for c in reversed(coeffs)]
            return lambda eta: mpmath.polyval(cs, eta)

        xi = poly(construct_report["xi_coefficients"])
        ps = [poly(lv["coefficients"]) for lv in levels[: nmax + 1]]
        e0 = mpq(levels[0]["energy"])
        u, v = (mpq(e) for e in _prefactor_exponents(case, alpha, beta))
        radial = case in ("l1", "l2")

        def phi(k, x):
            if radial:
                eta = x * x
                pre = mpmath.exp(u * eta) * x ** v
            else:
                eta = mpmath.cos(2 * x)
                pre = (2 * mpmath.sin(x) ** 2) ** u * (2 * mpmath.cos(x) ** 2) ** v
            return pre * ps[k](eta) / xi(eta)

        picks = sorted({round(i * (len(rows) - 1) / (PLOT_SAMPLES - 1))
                        for i in range(PLOT_SAMPLES)})
        got, ref = [], []
        for i in picks:
            vals = [float(t) for t in rows[i].split(",")]
            if len(vals) != len(header):
                return f"row {i} has {len(vals)} columns"
            x = mpmath.mpf(vals[0])
            # H phi0 = E0 phi0 with H = -d^2/dx^2 + V gives V = E0 + phi0''/phi0
            potential = e0 + mpmath.diff(lambda t: phi(0, t), x, 2) / phi(0, x)
            got.append(vals[1:])
            ref.append([potential] + [phi(k, x) for k in range(nmax + 1)])
        for col in range(len(header) - 1):
            scale = statistics.median(abs(r[col]) for r in ref)
            for i, g, r in zip(picks, got, ref):
                if not abs(g[col] - r[col]) <= PLOT_RTOL * (abs(r[col]) + scale):
                    return (f"row {i} column {header[col + 1]}: {g[col]!r} vs "
                            f"reference {mpmath.nstr(r[col], 17)}")
    return None
