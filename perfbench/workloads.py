"""The three workloads.  Each is a closed loop with a single client: the next
operation starts when the previous one has finished and been checked.

verify      one operation = one fresh ``exopoly verify`` process.
cli-mix     one operation = one session on a point: fresh ``construct``,
            ``ortho``, ``spectrum`` and ``plotdata`` processes in turn.
exact-deep  one operation = one point built and exactly checked in this
            process for family indices 0..16.

In a traced run each CLI operation runs twice in a row, plain then traced,
and exact-deep alternates plain and traced points; the plain copies give the
tracing overhead.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import points

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().with_name("launch.py")
RUN_DIR = ROOT / ".perfbench_run"
CHILD_TIMEOUT = 60
# a run ends within --seconds plus this grace, even if children hang
GRACE_S = 100
SETUP_FIRST = 3     # start-up probes before the loop
SETUP_EVERY = 1 / 6  # then one per this share of --seconds, between operations
CLI_NMAX = 12
SPECTRUM_K = 5
PLOT_POINTS = 2000


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Run:
    """Everything one benchmark run observed."""

    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0           # unexpected failures: wrong output, crash, new exit code
    known_failed: int = 0     # the recorded defects of KNOWN_FAILING / catalogue points
    reasons: list = field(default_factory=list)
    known_reasons: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)          # plain operations
    traced_op_s: list = field(default_factory=list)
    command_s: dict = field(default_factory=dict)     # plain process seconds per command
    dumps: list = field(default_factory=list)         # span records, one per tracer
    import_s: list = field(default_factory=list)      # traced processes
    traced_ops: int = 0
    traced_stdout_bytes: int = 0
    peak_rss_mb: float = 0.0
    started: float = field(default_factory=time.perf_counter)
    _proc_count: int = 0
    _last_probe: float = 0.0

    def expired(self) -> bool:
        return time.perf_counter() - self.started >= self.seconds

    def keep_going(self) -> bool:
        """False once --seconds have passed; otherwise runs a start-up probe
        when one is due, so that probes sample the whole run."""
        if self.expired():
            return False
        if time.perf_counter() - self._last_probe >= self.seconds * SETUP_EVERY:
            self.probe_setup()
        return True

    def probe_setup(self) -> None:
        """One fresh-process start-up: ``exopoly --version``."""
        p = self.launch(["--version"], op=-1 if self.trace else None)
        if p.code != 0 or not p.stdout.startswith("exopoly, version"):
            raise RuntimeError(f"exopoly --version failed: exit {p.code}: {p.stderr.strip()}")
        self.setup_s.append(p.seconds)
        self._last_probe = time.perf_counter()

    def outcome(self, label: str, reason: str | None, known: bool = False) -> None:
        self.attempted += 1
        if reason is None:
            return
        if known:
            self.known_failed += 1
            if len(self.known_reasons) < 10:
                self.known_reasons.append(f"{label}: {reason}")
        else:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")

    def launch(self, args: list[str], op: int | None = None) -> Proc:
        """One fresh process; traced when ``op`` is given."""
        cmd = [sys.executable, str(LAUNCH)]
        path = None
        if op is not None:
            self._proc_count += 1
            path = RUN_DIR / f"trace-{self._proc_count}.json"
            cmd += ["--trace", str(path), str(op)]
        t0 = time.perf_counter()
        timeout = max(1.0, min(CHILD_TIMEOUT, self.started + self.seconds + GRACE_S - t0))
        try:
            r = subprocess.run(cmd + args, capture_output=True, text=True,
                               timeout=timeout, cwd=ROOT)
            proc = Proc(r.returncode, r.stdout, r.stderr, time.perf_counter() - t0)
        except subprocess.TimeoutExpired:
            proc = Proc(-1, "", f"timed out after {timeout:.0f} s",
                        time.perf_counter() - t0)
        if path is not None and path.exists():
            with open(path) as fh:
                dump = json.load(fh)
            path.unlink()
            self.import_s.append(dump["import_s"])
            if op >= 0:  # start-up probes give only their import time
                self.dumps.append(dump)
        return proc


def _failure_reason(p: Proc, reason: str | None) -> str | None:
    if reason is not None and p.stderr.strip():
        return f"{reason} ({p.stderr.strip().splitlines()[-1]})"
    return reason


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_workload(run: Run, catalogue: dict, seed: int) -> None:
    # `exopoly verify` takes no input, so the seed changes nothing here
    expected = catalogue["verify"]
    op = 0
    while run.keep_going():
        for traced in (False, True) if run.trace else (False,):
            p = run.launch(["verify"], op=op if traced else None)
            run.outcome("verify", _failure_reason(p, checks.check_verify(p.code, p.stdout, expected)))
            if traced:
                run.traced_op_s.append(p.seconds)
                run.traced_ops += 1
                run.traced_stdout_bytes += len(p.stdout.encode())
            else:
                run.op_s.append(p.seconds)
                run.command_s.setdefault("verify", []).append(p.seconds)
        op += 1


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def _session(run: Run, point, entry: dict, op: int | None) -> float:
    args = points.cli_args(point)
    label = points.point_key(point)
    known = set(entry["fails"])
    total = 0.0
    construct_report = None
    commands = (
        ("construct", ["--nmax", str(CLI_NMAX)]),
        ("ortho", ["--nmax", str(CLI_NMAX)]),
        ("spectrum", ["-k", str(SPECTRUM_K)]),
        ("plotdata", ["--points", str(PLOT_POINTS)]),
    )
    for command, extra in commands:
        p = run.launch([command, *args, *extra], op=op)
        total += p.seconds
        if op is None:
            run.command_s.setdefault(command, []).append(p.seconds)
        else:
            run.traced_stdout_bytes += len(p.stdout.encode())
        if command == "construct":
            reason = checks.check_construct(p.code, p.stdout, entry["construct"])
            if reason is None:
                construct_report = json.loads(p.stdout)
        elif command == "ortho":
            reason = checks.check_ortho(p.code, p.stdout, CLI_NMAX)
        elif command == "spectrum":
            reason = checks.check_spectrum(p.code, p.stdout, entry["energies"])
        elif construct_report is None:
            reason = "not checked: the construct report of this point failed its check"
        else:
            reason = checks.check_plotdata(p.code, p.stdout, point, construct_report,
                                          PLOT_POINTS)
        reason = _failure_reason(p, reason)
        # a recorded defect shows as exit code 2; any other failure is new
        run.outcome(f"{command} {label}", reason, known=command in known and p.code == 2)
    return total


def cli_mix_workload(run: Run, catalogue: dict, seed: int) -> None:
    entries = {points.point_key(points.as_point(e)): e
               for e in catalogue["cli_fixed"] + catalogue["cli_draws"]}
    schedule = points.cli_schedule(catalogue, seed)
    op = 0
    while run.keep_going():
        point = schedule[op % len(schedule)]
        entry = entries[points.point_key(point)]
        run.op_s.append(_session(run, point, entry, None))
        if run.trace:
            run.traced_op_s.append(_session(run, point, entry, op))
            run.traced_ops += 1
        op += 1


# ---------------------------------------------------------------------------
# exact-deep
# ---------------------------------------------------------------------------


def deep_point(entry: dict) -> tuple[list, str | None]:
    """Build one point and check it exactly: a zero eigen-equation residual
    for every family index, and either proportional bilinear forms or, for
    extj, the degree and node law.  Returns (polys, reason)."""
    import exopoly.polycore as polycore
    import exopoly.systems as systems

    case, ell = entry["case"], entry["ell"]
    alpha = Fraction(entry["alpha"])
    beta = None if entry["beta"] is None else Fraction(entry["beta"])
    unit = polycore.Interval(Fraction(-1), Fraction(1))
    polys: list = []
    sys_ = systems.build_system(systems.Case(case), systems.Params(ell, alpha, beta))
    for n in range(points.DEEP_FAMILY):
        poly = systems.exceptional_poly(sys_, n)
        polys.append(poly.coeffs)
        if not systems.ode_residual(sys_, n).is_zero:
            return polys, f"nonzero eigen-equation residual at n={n}"
        if case == "extj":
            if poly.degree() != ell + n + 1 or polycore.sturm_count(poly, unit) != n + 1:
                return polys, f"degree/node law fails at n={n}"
        elif systems.proportionality(poly, systems.shifted_form_poly(sys_, n)) == 0:
            return polys, f"zero proportionality constant at n={n}"
    return polys, None


def exact_deep_workload(run: Run, catalogue: dict, seed: int) -> None:
    from tracer import Tracer

    rounds = points.deep_schedule(catalogue, seed)
    tracer = Tracer()
    op = 0
    while run.keep_going():
        batch = rounds[op // len(rounds[0]) % len(rounds)]
        entry = batch[op % len(batch)]
        label = points.point_key(points.as_point(entry))
        # traced and plain points alternate; round order is shuffled per
        # round, so both halves cover every (case, ell) pair and cache state
        traced = run.trace and op % 2 == 1
        if traced:
            tracer.op = op
            tracer.install()
        t0 = time.perf_counter()
        try:
            polys, reason = deep_point(entry)
        except Exception as exc:  # an exception is a failed operation
            polys, reason = None, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if reason is None and points.poly_family_digest(polys) != entry["digest"]:
            reason = "coefficients differ from the recorded digest"
        run.outcome(label, reason)
        (run.traced_op_s if traced else run.op_s).append(seconds)
        run.traced_ops += traced
        op += 1
    if run.trace:
        run.dumps.append(tracer.record({}))
