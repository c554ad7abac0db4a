"""exopoly benchmark.

    python3 perfbench/run.py --workload {verify,cli-mix,exact-deep} \
        --seed N --seconds S --trace {0,1}

Runs one workload as a closed loop with a single client for S seconds
against the ``src`` tree of this checkout, checks every output, prints a
readable report and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, from traced operations, plus the tracing overhead.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import points
import workloads
from tracer import summarize

WORKLOADS = {
    "verify": workloads.verify_workload,
    "cli-mix": workloads.cli_mix_workload,
    "exact-deep": workloads.exact_deep_workload,
}
OPERATION = {
    "verify": "exopoly verify process",
    "cli-mix": "session of construct, ortho, spectrum and plotdata processes on one point",
    "exact-deep": "point built and exactly checked for family indices 0..16",
}
SUITES = ("identities", "xi-equation", "ode-residual", "shifted-form",
          "degree-node", "zero-count", "orthogonality", "spectrum")
# span name -> (metric, timing): "self" excludes child spans, "incl" does not
SPAN_METRICS = {
    "systems.build_system": ("systems.build_system_s", "self"),
    "systems.exceptional_poly": ("systems.exceptional_poly_s", "self"),
    "systems.ode_residual": ("systems.ode_residual_s", "self"),
    "systems.shifted_form_poly": ("systems.shifted_form_poly_s", "self"),
    "classical.jacobi": ("classical.jacobi_s", "self"),
    "classical.laguerre": ("classical.laguerre_s", "self"),
    "polycore.sturm_count": ("polycore.sturm_count_s", "self"),
    "cli.main": ("cli.self_s", "self"),
    "quadrature.gram": ("quadrature.gram_s", "incl"),
    "spectral.discretize": ("spectral.discretize_s", "incl"),
    "spectral.eigen_lowest": ("spectral.eigen_lowest_s", "incl"),
    **{f"verify.{s}": (f"verify.{s}_s", "incl") for s in SUITES},
}
COUNTERS = ("quadrature.integrate_calls", "quadrature.nodes_evaluated",
            "quadrature.convergence_failures", "spectral.bisection_steps")


def machine_facts() -> dict:
    facts = {"commit": _commit(), "python": platform.python_version()}
    for dist in ("numpy", "click"):
        try:
            facts[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            facts[dist] = "missing"
    facts["nproc"] = len(os.sched_getaffinity(0))
    facts["cpu"] = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip()
                                for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return facts


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run: workloads.Run) -> dict:
    return {
        "setup_s": (_median(run.setup_s), "s"),
        "ops_per_s": (len(run.op_s) / sum(run.op_s), "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: workloads.Run) -> dict:
    ops = max(run.traced_ops, 1)
    totals = {metric: 0.0 for metric, _ in SPAN_METRICS.values()}
    float_eval = 0.0
    calls = {"systems.potential_eval": 0, "systems.wavefunction_eval": 0,
             "polycore.sturm_count": 0}
    counts = {key: 0 for key in COUNTERS}
    cache = [0, 0]
    bits = 0
    for dump in run.dumps:
        for name, (n, incl, self_s) in summarize(dump["spans"]).items():
            if name in SPAN_METRICS:
                metric, kind = SPAN_METRICS[name]
                totals[metric] += self_s if kind == "self" else incl
            if name in ("systems.potential_eval", "systems.wavefunction_eval"):
                float_eval += incl
            if name in calls:
                calls[name] += n
        for key in COUNTERS:
            counts[key] += dump["counts"].get(key, 0)
        for hits, misses in dump["cache"].values():
            cache[0] += hits
            cache[1] += misses
        bits = max(bits, dump["bits_max"])
    metrics = {"startup.import_s": (_median(run.import_s), "s")}
    for metric, total in totals.items():
        metrics[metric] = (total / ops, "s")
    metrics["cli.stdout_bytes"] = (run.traced_stdout_bytes / ops, "bytes")
    metrics["systems.float_eval_s"] = (float_eval / ops, "s")
    metrics["systems.potential_eval_calls"] = (calls["systems.potential_eval"] / ops, "count")
    metrics["systems.wavefunction_eval_calls"] = (calls["systems.wavefunction_eval"] / ops, "count")
    metrics["polycore.sturm_count_calls"] = (calls["polycore.sturm_count"] / ops, "count")
    metrics["polycore.coeff_bits_max"] = (bits, "bits")
    metrics["classical.cache_hit_ratio"] = (cache[0] / max(sum(cache), 1), "ratio")
    for key in COUNTERS:
        metrics[key] = (counts[key] / ops, "count")
    metrics["fail_ratio"] = ((run.failed + run.known_failed) / max(run.attempted, 1), "ratio")
    metrics["trace.overhead_pct"] = (overhead_pct(run), "%")
    return metrics


def overhead_pct(run: workloads.Run) -> float:
    return 100.0 * (_median(run.traced_op_s) / _median(run.op_s) - 1.0)


def _tail(values) -> str:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    best = ""
    for pct in (75, 90, 95, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            best = f"; p{pct} {cut:.4f}"
    return best


def report(args, run: workloads.Run, facts: dict) -> None:
    p = print
    p(f"# exopoly benchmark: workload={args.workload} seed={args.seed} "
      f"seconds={args.seconds} trace={args.trace}")
    p("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    p(f"# operation: one {OPERATION[args.workload]}; closed loop, 1 client")
    n_ops = len(run.op_s)
    rows = [("setup_s", _median(run.setup_s), "s", f"median of {len(run.setup_s)} fresh starts spread over the run")]
    for name in ("verify", "construct", "ortho", "spectrum", "plotdata"):
        vals = run.command_s.get(name)
        rows.append((f"{name}_s", _median(vals) if vals else None, "s",
                     f"median of {len(vals)} processes" if vals else "not run by this workload"))
    if args.workload == "exact-deep":
        rows.append(("exact_points_per_s", n_ops / sum(run.op_s), "1/s", f"{n_ops} points"))
    else:
        rows.append(("exact_points_per_s", None, "1/s", "not run by this workload"))
    total_failed = run.failed + run.known_failed
    rows.append(("fail_ratio", total_failed / max(run.attempted, 1), "ratio",
                 f"{total_failed} failed of {run.attempted} attempted: "
                 f"{run.known_failed} recorded defects, {run.failed} unexpected"))
    rows.append(("peak_rss_mb", run.peak_rss_mb, "MB", "working processes"))
    qs = statistics.quantiles(run.op_s, n=4) if n_ops > 1 else run.op_s * 3
    rows.append(("op_s", _median(run.op_s), "s",
                 f"median of {n_ops}; quartiles {qs[0]:.4f} / {qs[2]:.4f}"
                 f"{_tail(run.op_s)}; max {max(run.op_s):.4f}"))
    if run.trace:
        rows.append(("trace.overhead_pct", overhead_pct(run), "%",
                     f"traced median op {_median(run.traced_op_s):.4f} s over "
                     f"{len(run.traced_op_s)} ops vs plain {_median(run.op_s):.4f} s"))
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        p(f"# {name:<20} {shown:>12} {unit:<6} {note}")
    for reason in run.known_reasons:
        p(f"# recorded defect: {reason}")
    for reason in run.reasons:
        p(f"# FAILED: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = workloads.ROOT / "src" / "exopoly" / "cli.py"
    if not src.is_file():
        print(f"error: no exopoly source tree at {src.parent}", file=sys.stderr)
        return 2
    catalogue = points.load_catalogue()
    facts = machine_facts()

    shutil.rmtree(workloads.RUN_DIR, ignore_errors=True)
    workloads.RUN_DIR.mkdir()
    try:
        run = workloads.Run(seconds=args.seconds, trace=bool(args.trace))
        for _ in range(workloads.SETUP_FIRST):
            run.probe_setup()
        if args.workload == "exact-deep":
            sys.path.insert(0, str(workloads.ROOT / "src"))
            import exopoly  # noqa: F401
        run.started = time.perf_counter()
        WORKLOADS[args.workload](run, catalogue, args.seed)
        who = resource.RUSAGE_SELF if args.workload == "exact-deep" else resource.RUSAGE_CHILDREN
        run.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workloads.RUN_DIR, ignore_errors=True)
    if not run.op_s:
        print("error: no operation completed", file=sys.stderr)
        return 1

    report(args, run, facts)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
