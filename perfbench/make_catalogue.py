"""Draw the benchmark's point catalogue and record the program's exact outputs.

    python3 perfbench/make_catalogue.py

Run it only when the catalogue itself has to change: the digests it records
are the reference that later runs are checked against, so they must come
from a commit whose exact results are trusted.  It takes a few minutes.

For each cli-mix point it records the digest of ``construct --nmax 12``, the
exact energies of levels 0..4, and which of ``ortho`` / ``spectrum`` exit
with code 2 at this commit (recorded defects, counted in fail_ratio).  For
each exact-deep point it records the digest of family members 0..16.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import points  # noqa: E402
import workloads  # noqa: E402
from exopoly import cli  # noqa: E402
from exopoly.classical import jacobi_is_degree_degenerate  # noqa: E402
from exopoly.systems import (  # noqa: E402
    Case, NodelessnessError, ParameterError, Params, build_system, energy,
)

CATALOGUE_SEED = 1104
MAX_DEN = 6
CLI_DRAWS_PER_CASE = 20
DEEP_PER_PAIR = 40


def _rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in the open interval (lo, hi) with denominator <= MAX_DEN."""
    while True:
        den = rng.randint(1, MAX_DEN)
        num = rng.randint(int(lo * den) - 1, int(hi * den) + 1)
        x = Fraction(num, den)
        if lo < x < hi:
            return x


def draw_params(rng: random.Random, case: str, ell: int):
    """One candidate (alpha, beta) satisfying the printed inequalities of a
    case.  Nodelessness is not checked here; ``draw_points`` keeps only
    candidates that ``build_system`` accepts."""
    half = Fraction(1, 2)
    span = Fraction(4)
    if case == "l2":
        return _rational(rng, -ell - span, Fraction(-ell)), None
    if case == "l1":
        # alpha > -1 stays out of the (-3/2, -1] zone, where admission rests
        # on the Sturm check alone; the known failing l1 point stands for it
        return _rational(rng, Fraction(-1), span), None
    if case in ("j1", "j2"):
        a = _rational(rng, -half, span)
        b = _rational(rng, -ell - span, Fraction(-ell))
        return (a, b) if case == "j1" else (b, a)
    while True:
        a = _rational(rng, -ell - span, -half)
        b = _rational(rng, -ell - span, -half)
        if a + b < -ell:
            return a, b


def run_cli(args: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sys.argv = ["exopoly", *args]
        try:
            cli.main()
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue()


def admissible(case: str, ell: int, a, b) -> bool:
    try:
        build_system(Case(case), Params(ell, a, b))
    except (ParameterError, NodelessnessError):
        return False
    return b is None or not jacobi_is_degree_degenerate(ell, a, b)


def draw_points(rng: random.Random, case: str, ell: int, count: int, taken: set) -> list:
    out = []
    while len(out) < count:
        a, b = draw_params(rng, case, ell)
        point = (case, ell, str(a), None if b is None else str(b))
        if point not in taken and admissible(case, ell, a, b):
            taken.add(point)
            out.append(point)
    return out


def cli_entry(point) -> dict:
    args = points.cli_args(point)
    code, out = run_cli(["construct", *args, "--nmax", str(workloads.CLI_NMAX)])
    if code != 0:
        raise SystemExit(f"construct failed at {point}")
    report = json.loads(out)
    case, ell, alpha, beta = point
    sys_ = build_system(Case(case), Params(ell, alpha, beta))
    fails = []
    for command, extra in (("ortho", ["--nmax", str(workloads.CLI_NMAX)]),
                           ("spectrum", ["-k", str(workloads.SPECTRUM_K)])):
        code, _ = run_cli([command, *args, *extra])
        if code == 2:
            fails.append(command)
        elif code != 0:
            raise SystemExit(f"{command} exit {code} at {point}")
    code, out = run_cli(["plotdata", *args, "--points", str(workloads.PLOT_POINTS)])
    reason = checks.check_plotdata(code, out, point, report, workloads.PLOT_POINTS)
    if reason is not None:
        raise SystemExit(f"plotdata check fails at {point}: {reason}")
    return {
        "case": case, "ell": ell, "alpha": alpha, "beta": beta,
        "construct": points.construct_digest(report),
        "energies": [str(energy(sys_, k)) for k in range(workloads.SPECTRUM_K)],
        "fails": fails,
    }


def deep_entry(point) -> dict:
    case, ell, alpha, beta = point
    entry = {"case": case, "ell": ell, "alpha": alpha, "beta": beta}
    polys, reason = workloads.deep_point(entry)
    if reason is not None:
        raise SystemExit(f"exact-deep check fails at {point}: {reason}")
    entry["digest"] = points.poly_family_digest(polys)
    return entry


def main() -> None:
    rng = random.Random(CATALOGUE_SEED)
    code, out = run_cli(["verify"])
    if code != 0:
        raise SystemExit("exopoly verify fails; no catalogue recorded")
    catalogue = {"verify": checks.verify_summary(json.loads(out))}

    fixed = list(points.KNOWN_FAILING) + list(points.REPRESENTATIVE)
    taken = set(fixed)
    catalogue["cli_fixed"] = [cli_entry(p) for p in fixed]
    draws = []
    for case in points.CASES:
        for i in range(CLI_DRAWS_PER_CASE):
            ell = points.CLI_ELLS[i % len(points.CLI_ELLS)]
            draws += draw_points(rng, case, ell, 1, taken)
    catalogue["cli_draws"] = [cli_entry(p) for p in draws]
    print(f"cli points: {len(fixed) + len(draws)}; recorded defects:",
          [(points.point_key(points.as_point(e)), e["fails"])
           for e in catalogue["cli_fixed"] + catalogue["cli_draws"] if e["fails"]],
          file=sys.stderr)

    taken = set()
    deep = []
    for case in points.CASES:
        for ell in points.DEEP_ELLS:
            deep += [deep_entry(p) for p in draw_points(rng, case, ell, DEEP_PER_PAIR, taken)]
    catalogue["deep"] = deep

    with open(points.CATALOGUE, "w") as fh:
        fh.write("{\n")
        keys = list(catalogue)
        for i, key in enumerate(keys):
            rows = ",\n".join("    " + json.dumps(e) for e in catalogue[key])
            fh.write(f'  "{key}": [\n{rows}\n  ]' + (",\n" if i + 1 < len(keys) else "\n"))
        fh.write("}\n")


if __name__ == "__main__":
    main()
