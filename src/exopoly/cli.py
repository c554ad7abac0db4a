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
the system's label) or OverflowError (parameters beyond the float range,
followed by the library's reason when that is led by the label).

`verify` runs its suites through `verify.run_suites`: with two usable CPUs
the float suites (orthogonality, spectrum) run in a forked child while the
exact suites run in this process.  The output is the same either way.

Every command runs over plain Python floats: none loads numpy.

Each command is defined at its first lookup and imports its layers there, so a
process runs only the layers it calls; bodies call them as `quadrature.gram`.
"""

from __future__ import annotations

import difflib
import functools
import sys as _sys
from fractions import Fraction
from itertools import islice
from typing import Optional

import click

from . import __version__


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
    if isinstance(obj, (Fraction, int)):
        from .polycore import rat_str
        return _json_escape(rat_str(obj)) if isinstance(obj, Fraction) else rat_str(obj)
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
    from .polycore import rat
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        _fail(f"invalid rational for --{name}: {text!r} (use p/q or a decimal string)", 1)


def _system_header(sys) -> dict:
    p = sys.params
    return {"case": sys.case.value, "ell": p.ell, "alpha": p.alpha, "beta": p.beta}


class _LazyGroup(click.Group):
    """click's lazy-subcommand pattern: a command is defined at its first lookup."""

    def list_commands(self, ctx):
        return sorted(_DEFINITIONS)

    def get_command(self, ctx, name):
        if name in _DEFINITIONS and name not in self.commands:
            _DEFINITIONS[name]()
        return super().get_command(ctx, name)

    def resolve_command(self, ctx, args):
        try:
            return super().resolve_command(ctx, args)
        except getattr(click.exceptions, "NoSuchCommand", ()) as exc:
            # click (>= 8.2) offers close names among the commands defined so far
            exc.possibilities = difflib.get_close_matches(exc.command_name, _DEFINITIONS)
            raise


@click.group(cls=_LazyGroup)
@click.version_option(version=__version__, prog_name="exopoly")
def cli():
    """Exactly solvable systems built on deformed Laguerre/Jacobi families.

    Polynomial coefficients are always listed in ascending powers of eta.
    Rationals print as p/q strings; CSV output uses decimal floats.
    """


def _point_command(body):
    """Register body(sys, **options) as a command on one system point.  An
    inadmissible point, a ValueError and an OverflowError all exit 1 here,
    the last two with a message led by the system's label."""
    from . import systems
    @cli.command()
    @click.option("--case", "case_str", type=click.Choice([c.value for c in systems.Case]),
                  required=True, help="The deformed system.")
    @click.option("--ell", type=int, required=True, help="Deformation degree (>= 0).")
    @click.option("--alpha", required=True, help="Rational, e.g. -5/2 or -2.5.")
    @click.option("--beta", default=None, help="Rational; Jacobi-family cases only.")
    @functools.wraps(body)  # the name, the help text and the body's own options
    def command(case_str, ell, alpha, beta, **options):
        a, b = _parse_rational(alpha, "alpha"), _parse_rational(beta, "beta")
        try:  # Params rejects ell < 0
            sys = systems.build_system(systems.Case(case_str), systems.Params(ell, a, b))
        except (systems.ParameterError, systems.NodelessnessError) as exc:
            _fail(str(exc), 1)
        try:
            body(sys, **options)
        except OverflowError as exc:
            # a labelled message names where it overflowed, e.g. the quadrature level
            message = str(exc)
            where = message[len(sys.label):] if message.startswith(sys.label) else ""
            _fail(f"{sys.label}: beyond the float range; the float method of "
                  f"{body.__name__} cannot represent these parameters{where}", 1)
        except ValueError as exc:
            message = str(exc)
            _fail(message if message.startswith(sys.label) else f"{sys.label}: {message}", 1)

    return command


def _construct():
    from . import systems
    @_point_command
    @click.option("--n", "n_single", type=int, default=None,
                  help="Single polynomial family index.")
    @click.option("--nmax", type=int, default=None,
                  help="Emit levels 0..nmax instead of one index.")
    @click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
                  help="Exact JSON, or CSV of decimal floats.")
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
        levels = []
        if n_single is not None:
            if n_single < 0:
                _fail("--n must be >= 0", 1)
            # a ground level below the family puts member n at level n + 1
            level_indices = [n_single + (systems.family_index(sys, 0) is None)]
        else:
            if nmax < 0:
                _fail("--nmax must be >= 0", 1)
            level_indices = list(range(nmax + 1))
        for lv in level_indices:
            poly = systems.level_poly(sys, lv)
            levels.append({"level": lv, "family_index": systems.family_index(sys, lv),
                           "degree": poly.degree(), "energy": systems.energy(sys, lv),
                           "coefficients": list(poly.coeffs)})
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


def _verify():
    from . import verify as layer
    @cli.command()
    @click.option("--suite", "suites", multiple=True, type=click.Choice(sorted(layer.SUITES)),
                  help="Run only the named suites (repeatable); default: all.")
    @click.option("--inject", type=click.Choice(layer.MUTANTS), default=None, hidden=True,
                  help="Test harness mode: inject a named defect.")
    def verify(suites, inject):
        """Run the verification suites; exit 2 on any failure."""
        names = list(suites) or list(layer.SUITES)
        if inject is not None and "ode-residual" not in names:
            _fail("--inject needs the ode-residual suite (add --suite ode-residual)", 1)
        try:
            outcomes = layer.run_suites(names, inject)
        except (ArithmeticError, ValueError, RuntimeError) as exc:  # a suite could not finish
            _fail(str(exc), 2)
        # wall-clock timing is intentionally omitted: output must be byte-stable
        _emit_json([{k: v for k, v in vars(o).items() if k != "elapsed_s"} for o in outcomes])
        if any(not o.passed for o in outcomes):
            _sys.exit(2)


def _ortho():
    from . import quadrature
    @_point_command
    @click.option("--nmax", type=int, default=6, help="Levels 0..nmax-1 enter the matrix.")
    @click.option("--tol", type=float, default=1e-10, help="Off-diagonal pass threshold.")
    def ortho(sys, nmax, tol):
        """Normalized Gram matrix under the deformed weight.  Exit 2 above --tol."""
        if not 0 < tol < float("inf"):  # a NaN tolerance would pass every check
            _fail("--tol must be finite and > 0", 1)
        try:
            rep = quadrature.gram(sys, nmax)
        except quadrature.QuadratureConvergenceError as exc:
            _fail(f"orthogonality integration failed: {exc}", 2)
        _emit_json({**_system_header(sys), "size": rep.size, "max_offdiag": rep.max_offdiag,
                    "gram": [list(row) for row in rep.matrix]})
        if not rep.max_offdiag < tol:  # a NaN fails too
            _sys.exit(2)


def _spectrum():
    from . import spectral
    m, end = spectral.WALL_MARGIN, spectral.HALF_LINE_END
    box = f"(default box: {m:g}..{end:g} on the half line, {m:g}..pi/2-{m:g} on (0, pi/2))"

    @_point_command
    @click.option("-k", "--levels", "k", type=int, default=5, help="Lowest k levels (<= 10).")
    @click.option("--points", type=int, default=spectral.DEFAULT_POINTS,
                  help=f"Interior points of the fine grid (>= {spectral.MIN_POINTS}); the "
                       "eigenvalues are extrapolated from it and a coarse grid with half as "
                       "many cells.")
    @click.option("--x-min", type=float, default=None, help=f"Override the box's left end {box}.")
    @click.option("--x-max", type=float, default=None, help=f"Override the box's right end {box}.")
    @click.option("--tol", type=float, default=1e-3, help="Per-level error threshold.")
    def spectrum(sys, k, points, x_min, x_max, tol):
        """Compare finite-difference eigenvalues with the closed forms."""
        if not 0 < tol < float("inf"):
            _fail("--tol must be finite and > 0", 1)
        base = spectral.default_grid(sys, points)
        grid = spectral.GridSpec(base.x_min if x_min is None else x_min,
                                 base.x_max if x_max is None else x_max, points)
        rep = spectral.compare_spectrum(sys, k, grid)
        grid = {"x_min": rep.grid.x_min, "x_max": rep.grid.x_max, "points": rep.grid.points,
                "coarse_points": rep.coarse.points, "boundary": "dirichlet"}
        levels = [{"level": i, "analytic": a, "numeric": v, "error": e}
                  for i, (a, v, e) in enumerate(zip(rep.analytic, rep.numeric, rep.errors))]
        _emit_json({**_system_header(sys), "grid": grid, "levels": levels,
                    "max_error": rep.max_error})
        if not rep.max_error < tol:
            _sys.exit(2)


def _zeros():
    from . import classical
    @cli.command()
    @click.option("--kind", type=click.Choice(["laguerre", "jacobi"]), default=None,
                  help="Single query; with --sweep omitted.")
    @click.option("--ell", type=int, default=None, help="Polynomial degree n, not a system's ell.")
    @click.option("--alpha", default=None, help="Rational, e.g. -5/2 or -2.5.")
    @click.option("--beta", default=None, help="Rational; jacobi only.")
    @click.option("--sweep", type=int, default=None,
                  help="Random admissible points to tabulate instead.")
    @click.option("--seed", type=int, default=None, help="Seed of a --sweep only (default 7).")
    def zeros(kind, ell, alpha, beta, sweep, seed):
        """Zero-count predictions vs exact Sturm counts.  Exit 2 on a mismatch."""
        # exactly one form: a complete single query, or a sweep (seeded 7 unless
        # --seed is given) with no query options
        if sweep is None and (None in (kind, ell, alpha) or seed is not None) or (
                sweep is not None and (kind, ell, alpha, beta) != (None,) * 4):
            _fail("give --kind/--ell/--alpha (and --beta for jacobi), or --sweep N", 1)
        if sweep is None:
            a, b = _parse_rational(alpha, "alpha"), _parse_rational(beta, "beta")
        elif sweep < 0:
            _fail("--sweep must be >= 0", 1)
        try:  # the library checks the kind, degree and beta, and the theorems' hypotheses
            preds = ([classical.predict_zero_count(kind, ell, a, b)] if sweep is None else
                     islice(classical.zero_count_draws(7 if seed is None else seed), sweep))
            rows = [(p, classical.count_zeros_exact(p.kind, p.n, p.alpha, p.beta))
                    for p in preds]
        except ValueError as exc:
            _fail(str(exc), 1)
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


def _plotdata():
    from . import spectral, systems
    @_point_command
    @click.option("--nmax", type=int, default=3, help="Wave-function levels 0..nmax.")
    @click.option("--points", type=int, default=500, help="Interior grid points (>= 2).")
    def plotdata(sys, nmax, points):
        """CSV columns x, V(x), phi_0(x)..phi_nmax(x) on an interior grid."""
        if points < 2:
            _fail("--points must be >= 2", 1)
        if nmax < 0:
            _fail("--nmax must be >= 0", 1)
        base = spectral.default_grid(sys)  # the box only: fewer points than a grid may do
        lo, hi = base.x_min, base.x_max
        step = (hi - lo) / (points - 1)
        xs = [lo + k * step for k in range(points)]
        columns = [xs, systems.potential_eval(sys, xs)]
        columns += [systems.wavefunction_eval(sys, k, xs) for k in range(nmax + 1)]
        header = ["x", "V"] + [f"phi{k}" for k in range(nmax + 1)]
        lines = [",".join(header)]
        for row in zip(*columns):
            lines.append(",".join(_fmt_float(v) for v in row))
        click.echo("\n".join(lines))


# command name -> its definition, run at the command's first lookup
_DEFINITIONS = {"construct": _construct, "ortho": _ortho, "plotdata": _plotdata,
                "spectrum": _spectrum, "verify": _verify, "zeros": _zeros}


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
