"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the same seed gives the same inputs, that every catalogue point
is accepted by ``build_system``, that a deliberately broken program run
(``verify --inject p-l2-sign-flip``) and hand-corrupted outputs count as
failed operations, and that clean outputs pass.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import checks
import points
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from exopoly.systems import Case, Params, build_system  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_seeded_inputs(catalogue: dict) -> None:
    for seed in (0, 1, 12345):
        expect(points.cli_schedule(catalogue, seed) == points.cli_schedule(catalogue, seed)
               and points.deep_schedule(catalogue, seed) == points.deep_schedule(catalogue, seed),
               f"seed {seed} gives the same inputs twice")
    expect(points.cli_schedule(catalogue, 1) != points.cli_schedule(catalogue, 2)
           and points.deep_schedule(catalogue, 1) != points.deep_schedule(catalogue, 2),
           "seeds 1 and 2 give different inputs")
    schedule = points.cli_schedule(catalogue, 3)
    expect(all(p in schedule for p in points.KNOWN_FAILING + points.REPRESENTATIVE),
           "every cli-mix cycle holds the known failing and representative points")
    rounds = points.deep_schedule(catalogue, 3)
    expect(all(len({(e["case"], e["ell"]) for e in r}) == len(points.CASES) * len(points.DEEP_ELLS)
               for r in rounds), "every exact-deep round holds one point per (case, ell)")


def test_points_admissible(catalogue: dict) -> None:
    entries = catalogue["cli_fixed"] + catalogue["cli_draws"] + catalogue["deep"]
    rejected = []
    for e in entries:
        beta = None if e["beta"] is None else Fraction(e["beta"])
        try:
            build_system(Case(e["case"]), Params(e["ell"], Fraction(e["alpha"]), beta))
        except Exception as exc:  # any rejection is a finding
            rejected.append(f"{points.point_key(points.as_point(e))}: {exc}")
    expect(not rejected, f"build_system accepts all {len(entries)} catalogue points"
           + (f"; rejected: {rejected[:3]}" if rejected else ""))


def test_failures_counted(catalogue: dict) -> None:
    run = workloads.Run(seconds=0, trace=False)
    p = run.launch(["verify", "--inject", "p-l2-sign-flip"])
    reason = checks.check_verify(p.code, p.stdout, catalogue["verify"])
    run.outcome("verify --inject", reason)
    expect(p.code == 2 and reason is not None and run.failed == 1 and run.attempted == 1,
           f"injected ode-residual defect counts as a failed operation ({reason})")

    point = points.REPRESENTATIVE[0]
    entry = next(e for e in catalogue["cli_fixed"] if points.as_point(e) == point)
    args = points.cli_args(point)
    construct = run.launch(["construct", *args, "--nmax", str(workloads.CLI_NMAX)])
    expect(checks.check_construct(construct.code, construct.stdout, entry["construct"]) is None,
           "clean construct passes")
    report = json.loads(construct.stdout)
    report["levels"][3]["coefficients"][0] += "1"
    expect(checks.check_construct(0, json.dumps(report), entry["construct"]) is not None,
           "a changed construct coefficient fails")

    spectrum = run.launch(["spectrum", *args, "-k", str(workloads.SPECTRUM_K)])
    expect(checks.check_spectrum(spectrum.code, spectrum.stdout, entry["energies"]) is None,
           "clean spectrum passes")
    report = json.loads(spectrum.stdout)
    report["levels"][2]["numeric"] *= 1.01
    expect(checks.check_spectrum(0, json.dumps(report), entry["energies"]) is not None,
           "a 1 % eigenvalue error fails")

    ortho = run.launch(["ortho", *args, "--nmax", str(workloads.CLI_NMAX)])
    expect(checks.check_ortho(ortho.code, ortho.stdout, workloads.CLI_NMAX) is None,
           "clean ortho passes")
    report = json.loads(ortho.stdout)
    report["gram"][1][4] = 1e-9
    expect(checks.check_ortho(0, json.dumps(report), workloads.CLI_NMAX) is not None,
           "an off-diagonal Gram entry of 1e-9 fails")

    plot = run.launch(["plotdata", *args, "--points", str(workloads.PLOT_POINTS)])
    construct_report = json.loads(construct.stdout)
    expect(checks.check_plotdata(plot.code, plot.stdout, point, construct_report,
                                 workloads.PLOT_POINTS) is None, "clean plotdata passes")
    lines = plot.stdout.splitlines()
    cols = lines[1 + workloads.PLOT_POINTS // 2].split(",")
    cols[1] = repr(float(cols[1]) * (1 + 1e-7))
    lines[1 + workloads.PLOT_POINTS // 2] = ",".join(cols)
    expect(checks.check_plotdata(0, "\n".join(lines), point, construct_report,
                                 workloads.PLOT_POINTS) is not None,
           "a sampled plotdata value off by 1e-7 relative fails")


def main() -> int:
    catalogue = points.load_catalogue()
    test_seeded_inputs(catalogue)
    test_points_admissible(catalogue)
    test_failures_counted(catalogue)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
