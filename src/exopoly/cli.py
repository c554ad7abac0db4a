"""Command-line front end.

Subcommands build systems, run the verification suites, and emit
machine-readable reports.  Output is deterministic: identical invocations
produce byte-identical text (fixed field order, rationals as p/q strings,
floats printed with 17 significant digits, fixed random seeds).

Exit codes: 0 success; 1 invalid input or inadmissible parameters;
2 verification or computational failure.

The point commands (construct, ortho, spectrum, plotdata) share one
skeleton, `_point_command`: it declares --case/--ell/--alpha/--beta, builds
the system, and exits 1 on any ValueError (the library's message, led by
the system's label) or OverflowError (parameters beyond the float range).

`verify` runs its suites through `verify.run_suites`: with two usable CPUs
the float suites (orthogonality, spectrum) run in a forked child while the
exact suites run in this process.  The output is the same either way.

Every command runs over plain Python floats: none loads numpy.
"""

from __future__ import annotations

import functools
import sys as _sys
from fractions import Fraction
from itertools import islice
from typing import Optional

import click

from .classical import TheoremHypothesisError, count_zeros_exact, predict_zero_count
from .polycore import rat, rat_str
from .quadrature import QuadratureConvergenceError, gram
from .spectral import DEFAULT_POINTS, MIN_POINTS, GridSpec, compare_spectrum, default_grid
from .systems import (
    Case,
    NodelessnessError,
    ParameterError,
    Params,
    XSystem,
    build_system,
    energy,
    level_count_offset,
    level_poly,
    potential_eval,
    wavefunction_eval,
)
from .verify import MUTANTS, SUITES, run_suites, zero_count_draws

__all__ = ["main", "cli"]


def _fmt_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".17g")


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def _to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: preserves dict order, formats floats to 17 digits,
    renders Fractions as p/q strings."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return _json_escape(rat_str(obj))
    if isinstance(obj, int):
        return rat_str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _json_escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{_json_escape(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        simple = all(isinstance(v, (int, float, str, Fraction)) or v is None for v in seq)
        if simple:
            return "[" + ", ".join(_to_json(v) for v in seq) + "]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_json(obj) -> None:
    click.echo(_to_json(obj))


def _fail(message: str, code: int) -> None:
    click.echo(message, err=True)
    _sys.exit(code)


def _parse_rational(text: Optional[str], name: str) -> Optional[Fraction]:
    if text is None:
        return None
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        _fail(f"invalid rational for --{name}: {text!r} (use p/q or a decimal string)", 1)


def _system_header(sys: XSystem) -> dict:
    return {
        "case": sys.case.value,
        "ell": sys.params.ell,
        "alpha": sys.params.alpha,
        "beta": sys.params.beta,
    }


@click.group()
@click.version_option(version="0.1.0", prog_name="exopoly")
def cli():
    """Exactly solvable systems built on deformed Laguerre/Jacobi families.

    Polynomial coefficients are always listed in ascending powers of eta.
    Rationals print as p/q strings; CSV output uses decimal floats.
    """


def _point_command(body):
    """Register body(sys, **options) as a command on one system point.  An
    inadmissible point, a ValueError and an OverflowError all exit 1 here,
    the last two with a message led by the system's label."""

    @cli.command()
    @click.option("--case", "case_str", type=click.Choice([c.value for c in Case]), required=True)
    @click.option("--ell", type=int, required=True, help="Deformation degree (>= 0).")
    @click.option("--alpha", required=True, help="Rational, e.g. -5/2 or -2.5.")
    @click.option("--beta", default=None, help="Rational; Jacobi-family cases only.")
    @functools.wraps(body)  # the name, the help text and the body's own options
    def command(case_str, ell, alpha, beta, **options):
        a, b = _parse_rational(alpha, "alpha"), _parse_rational(beta, "beta")
        try:
            sys = build_system(Case(case_str), Params(ell, a, b))  # Params rejects ell < 0
        except (ParameterError, NodelessnessError) as exc:
            _fail(str(exc), 1)
        try:
            body(sys, **options)
        except OverflowError:
            _fail(f"{sys.label}: beyond the float range; the float method of "
                  f"{body.__name__} cannot represent these parameters", 1)
        except ValueError as exc:
            message = str(exc)
            _fail(message if message.startswith(sys.label) else f"{sys.label}: {message}", 1)

    return command


@_point_command
@click.option("--n", "n_single", type=int, default=None,
              help="Single polynomial family index.")
@click.option("--nmax", type=int, default=None,
              help="Emit levels 0..nmax instead of one index.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def construct(sys, n_single, nmax, fmt):
    """Build a system: deforming function, polynomials, energies.

    With --n the polynomial family index n is reported together with its
    eigenvalue (for case extj that is spectral level n+1: level 0 is the
    constant ground state).  With --nmax all levels 0..nmax are listed.
    """
    if n_single is not None and nmax is not None:
        _fail("give only one of --n / --nmax", 1)
    if n_single is None and nmax is None:
        n_single = 0
    off = level_count_offset(sys)
    levels = []
    if n_single is not None:
        if n_single < 0:
            _fail("--n must be >= 0", 1)
        level_indices = [n_single + off]
    else:
        if nmax < 0:
            _fail("--nmax must be >= 0", 1)
        level_indices = list(range(nmax + 1))
    for lv in level_indices:
        poly = level_poly(sys, lv)
        fam = None if (off and lv == 0) else lv - off
        levels.append({"level": lv, "family_index": fam, "degree": poly.degree(),
                       "energy": energy(sys, lv), "coefficients": list(poly.coeffs)})
    report = {
        **_system_header(sys),
        "xi_coefficients": list(sys.xi.coeffs),
        "xi_degree": sys.xi.degree(),
        "xi_tilde_E": sys.xi_tilde_E,
        "c2_sign": sys.c2_sign,
        "domain_eta": str(sys.domain_eta),
        "weight_exponents": {"exp": sys.weight.s, "eta": sys.weight.a,
                             "one_minus_eta": sys.weight.b, "one_plus_eta": sys.weight.c},
        "notes": list(sys.notes),
        "levels": levels,
    }
    if fmt == "json":
        _emit_json(report)
        return
    lines = ["case,ell,alpha,beta,level,family_index,degree,energy,k,coefficient"]
    p = sys.params
    head = [sys.case.value, str(p.ell), _fmt_float(float(p.alpha)),
            "" if p.beta is None else _fmt_float(float(p.beta))]
    for e in levels:
        fam = "" if e["family_index"] is None else str(e["family_index"])
        row = head + [str(e["level"]), fam, str(e["degree"]), _fmt_float(float(e["energy"]))]
        lines += [",".join(row + [str(k), _fmt_float(float(c))])
                  for k, c in enumerate(e["coefficients"])]
    click.echo("\n".join(lines))


@cli.command()
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(SUITES)),
              help="Run only the named suites (repeatable); default: all.")
@click.option("--inject", type=click.Choice(MUTANTS), default=None, hidden=True,
              help="Test harness mode: inject a named defect.")
def verify(suites, inject):
    """Run the verification suites; exit 2 on any failure."""
    names = list(suites) or list(SUITES)
    if inject is not None and "ode-residual" not in names:
        _fail("--inject needs the ode-residual suite (add --suite ode-residual)", 1)
    outcomes = run_suites(names, inject)
    # wall-clock timing is intentionally omitted: output must be byte-stable
    _emit_json([{k: v for k, v in vars(o).items() if k != "elapsed_s"} for o in outcomes])
    if any(not o.passed for o in outcomes):
        _sys.exit(2)


@_point_command
@click.option("--nmax", type=int, default=6, help="Levels 0..nmax-1 enter the matrix.")
@click.option("--tol", type=float, default=1e-10, help="Off-diagonal pass threshold.")
def ortho(sys, nmax, tol):
    """Normalized Gram matrix under the deformed weight; exit 2 above --tol."""
    if not 0 < tol < float("inf"):  # a NaN tolerance would pass every check
        _fail("--tol must be finite and > 0", 1)
    try:
        rep = gram(sys, nmax)
    except QuadratureConvergenceError as exc:
        _fail(f"orthogonality integration failed: {exc}", 2)
    _emit_json({**_system_header(sys), "size": rep.size, "max_offdiag": rep.max_offdiag,
                "gram": [list(row) for row in rep.matrix]})
    if rep.max_offdiag >= tol:
        _sys.exit(2)


@_point_command
@click.option("-k", "--levels", "k", type=int, default=5, help="Lowest k levels (<= 10).")
@click.option("--points", type=int, default=DEFAULT_POINTS,
              help=f"Interior points of the fine grid (>= {MIN_POINTS}); the eigenvalues are "
                   "extrapolated from it and a coarse grid with half as many cells.")
@click.option("--x-min", type=float, default=None)
@click.option("--x-max", type=float, default=None)
@click.option("--tol", type=float, default=1e-3, help="Per-level error threshold.")
def spectrum(sys, k, points, x_min, x_max, tol):
    """Compare finite-difference eigenvalues with the closed forms."""
    if not 0 < tol < float("inf"):
        _fail("--tol must be finite and > 0", 1)
    base = default_grid(sys, points)
    grid = GridSpec(base.x_min if x_min is None else x_min,
                    base.x_max if x_max is None else x_max, points)
    rep = compare_spectrum(sys, k, grid)
    grid = {"x_min": rep.grid.x_min, "x_max": rep.grid.x_max, "points": rep.grid.points,
            "coarse_points": rep.coarse.points, "boundary": "dirichlet"}
    levels = [{"level": i, "analytic": a, "numeric": v, "error": e}
              for i, (a, v, e) in enumerate(zip(rep.analytic, rep.numeric, rep.errors))]
    _emit_json({**_system_header(sys), "grid": grid, "levels": levels,
                "max_error": rep.max_error})
    if rep.max_error >= tol:
        _sys.exit(2)


@cli.command()
@click.option("--kind", type=click.Choice(["laguerre", "jacobi"]), default=None,
              help="Single query; with --sweep omitted.")
@click.option("--ell", type=int, default=None)
@click.option("--alpha", default=None)
@click.option("--beta", default=None)
@click.option("--sweep", type=int, default=None,
              help="Random admissible points to tabulate instead.")
@click.option("--seed", type=int, default=7)
def zeros(kind, ell, alpha, beta, sweep, seed):
    """Zero-count predictions vs exact Sturm counts; exit 2 on a mismatch."""
    rows = []
    if sweep is None:
        if kind is None or ell is None or alpha is None:
            _fail("give --kind/--ell/--alpha (and --beta for jacobi), or --sweep N", 1)
        a = _parse_rational(alpha, "alpha")
        b = _parse_rational(beta, "beta")
        if kind == "jacobi" and b is None:
            _fail("jacobi query needs --beta", 1)
        if kind == "laguerre" and b is not None:
            _fail("laguerre query takes no --beta", 1)
        if ell < 0:
            _fail("--ell must be >= 0", 1)
        try:
            pred = predict_zero_count(kind, ell, a, b)
        except TheoremHypothesisError as exc:
            _fail(str(exc), 1)
        exact = count_zeros_exact(kind, ell, a, b)
        rows.append((pred, exact))
    else:
        if sweep < 0:
            _fail("--sweep must be >= 0", 1)
        for k, n, a, b in islice(zero_count_draws(seed), sweep):
            rows.append((predict_zero_count(k, n, a, b), count_zeros_exact(k, n, a, b)))
    table = []
    mismatches = 0
    for pred, exact in rows:
        match = pred.count == exact
        if not match and not pred.oracle_resolved:
            mismatches += 1
        table.append({"kind": pred.kind, "degree": pred.n, "alpha": pred.alpha,
                      "beta": pred.beta, "branch": pred.branch, "predicted": pred.count,
                      "oracle_resolved": pred.oracle_resolved,
                      "readings": list(pred.readings) if pred.readings else None,
                      "sturm": exact, "match": match})
    _emit_json({"rows": table, "mismatches": mismatches})
    if mismatches:
        _sys.exit(2)


@_point_command
@click.option("--nmax", type=int, default=3, help="Wave-function levels 0..nmax.")
@click.option("--points", type=int, default=500)
def plotdata(sys, nmax, points):
    """CSV columns x, V(x), phi_0(x).. phi_nmax(x) over an interior grid."""
    if points < 2:
        _fail("--points must be >= 2", 1)
    if nmax < 0:
        _fail("--nmax must be >= 0", 1)
    base = default_grid(sys)  # the box only: plotdata may take fewer points than a grid
    lo, hi = base.x_min, base.x_max
    step = (hi - lo) / (points - 1)
    xs = [lo + k * step for k in range(points)]
    columns = [xs, potential_eval(sys, xs)]
    columns += [wavefunction_eval(sys, k, xs) for k in range(nmax + 1)]
    header = ["x", "V"] + [f"phi{k}" for k in range(nmax + 1)]
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt_float(v) for v in row))
    click.echo("\n".join(lines))


def main():
    # exit-code contract: 0 success, 1 any input problem (including usage
    # errors, which click would otherwise report as 2), 2 verification failure
    try:
        cli(prog_name="exopoly", standalone_mode=False)
    except click.exceptions.Exit as exc:
        _sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        _sys.exit(1)
    except click.exceptions.Abort:
        _sys.exit(1)


if __name__ == "__main__":
    main()
