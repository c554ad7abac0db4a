"""Command-line interface: outputs, exit codes, determinism."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import exopoly
from exopoly.classical import zero_count_draws
from exopoly.cli import cli
from exopoly.polycore import rat_str
from exopoly.quadrature import GramReport
from exopoly.spectral import compare_spectrum
from exopoly.systems import Case, Params, build_system, level_poly
from exopoly.verify import SUITES


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_worked_example(runner):
    res = run(runner, "construct", "--case", "l2", "--ell", "1", "--alpha", "-2", "--n", "0")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["xi_coefficients"] == ["-1", "-1"]
    level = data["levels"][0]
    assert level["coefficients"] == ["2", "1"]
    assert level["energy"] == "4"


def test_construct_validation_error(runner):
    res = run(runner, "construct", "--case", "j1", "--ell", "1",
              "--alpha", "0", "--beta", "-1/2")
    assert res.exit_code == 1
    assert "parameter constraint violated" in res.output
    assert "beta < -ell" in res.output


def test_construct_laguerre_case_rejects_beta(runner):
    res = run(runner, "construct", "--case", "l2", "--ell", "1", "--alpha", "-2", "--beta", "7")
    assert res.exit_code == 1
    assert res.output.strip() == "parameter constraint violated: case l2 takes no beta"


def test_construct_bad_rational(runner):
    res = run(runner, "construct", "--case", "l2", "--ell", "1", "--alpha", "oops")
    assert res.exit_code == 1
    assert "invalid rational" in res.output


def test_construct_extj_degree_and_level_energy(runner):
    res = run(runner, "construct", "--case", "extj", "--ell", "2",
              "--alpha", "-5/2", "--beta", "-5/2", "--n", "0")
    assert res.exit_code == 0
    data = json.loads(res.output)
    level = data["levels"][0]
    # family member 0 sits at spectral level 1 with degree ell + 0 + 1
    assert level["level"] == 1 and level["family_index"] == 0
    assert level["degree"] == 3
    assert level["energy"] == "36"


def test_construct_extj_level_table_starts_at_ground(runner):
    res = run(runner, "construct", "--case", "extj", "--ell", "2",
              "--alpha", "-5/2", "--beta", "-5/2", "--nmax", "2")
    data = json.loads(res.output)
    levels = data["levels"]
    assert levels[0] == {
        "level": 0, "family_index": None, "degree": 0,
        "energy": "0", "coefficients": ["1"],
    }
    assert [lv["level"] for lv in levels] == [0, 1, 2]


def test_construct_decimal_alpha_is_exact(runner):
    res = run(runner, "construct", "--case", "l2", "--ell", "1", "--alpha", "-2.5")
    data = json.loads(res.output)
    assert data["alpha"] == "-5/2"


def test_construct_prints_rationals_past_the_int_digit_limit(runner):
    # the xi coefficient alpha^3/6 has 6,000 digits, past CPython's
    # 4,300-digit int-to-str limit; the output stays exact
    res = run(runner, "construct", "--case", "l1", "--ell", "3", "--alpha", "1e2000", "--nmax", "3")
    assert res.exit_code == 0
    data = json.loads(res.output)
    sys_ = build_system(Case.L1, Params(3, "1e2000"))
    assert data["alpha"] == "1" + "0" * 2000
    assert data["xi_coefficients"] == [rat_str(c) for c in sys_.xi.coeffs]
    assert max(len(c) for c in data["xi_coefficients"]) > 4300
    for level in data["levels"]:
        assert level["coefficients"] == [rat_str(c) for c in level_poly(sys_, level["level"]).coeffs]


def test_construct_csv(runner):
    res = run(runner, "construct", "--case", "l2", "--ell", "1", "--alpha", "-2",
              "--n", "0", "--format", "csv")
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("case,ell,alpha,")
    assert len(lines) == 3  # header + 2 coefficients


def test_determinism_byte_identical(runner):
    args = ("construct", "--case", "extj", "--ell", "2",
            "--alpha", "-5/2", "--beta", "-5/2", "--nmax", "3")
    out1 = run(runner, *args).output
    out2 = run(runner, *args).output
    assert out1 == out2
    args2 = ("zeros", "--sweep", "12", "--seed", "3")
    assert run(runner, *args2).output == run(runner, *args2).output
    args3 = ("verify", "--suite", "degree-node")
    assert run(runner, *args3).output == run(runner, *args3).output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite_passes(runner):
    res = run(runner, "verify", "--suite", "identities")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data[0]["suite"] == "identities" and data[0]["passed"] is True


def test_verify_injected_defect_is_caught(runner):
    res = run(runner, "verify", "--suite", "ode-residual",
              "--inject", "p-l2-sign-flip")
    assert res.exit_code == 2
    data = json.loads(res.output)
    assert data[0]["passed"] is False and data[0]["failures"] > 0


def _main(*args):
    """Run the CLI through main() in a fresh interpreter."""
    src = str(Path(exopoly.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "exopoly.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_verify_unknown_defect_is_a_usage_error():
    # through main(), whose exit-code contract maps usage errors to 1
    res = _main("verify", "--suite", "xi-equation", "--inject", "bogus")
    assert res.returncode == 1, res.stderr
    assert res.stdout == ""
    assert "bogus" in res.stderr


def test_verify_inject_needs_the_ode_residual_suite(runner):
    # a defect injected into a run that never reads it tests nothing
    res = run(runner, "verify", "--suite", "identities", "--inject", "p-l2-sign-flip")
    assert res.exit_code == 1
    assert "ode-residual" in res.output
    assert '"suite"' not in res.output


@pytest.mark.parametrize("suites", [["orthogonality"], ["xi-equation", "orthogonality"]])
def test_verify_exits_2_when_a_suite_cannot_finish(runner, monkeypatch, suites):
    # beside an exact suite the float half runs in a forked child (given two
    # CPUs), whose error is raised again in this process
    monkeypatch.setattr(exopoly.quadrature, "_MAX_NODES", 10)
    res = run(runner, "verify", *(arg for name in suites for arg in ("--suite", name)))
    assert res.exit_code == 2
    assert "case l2 (ell=1, alpha=-2, beta=None), pair (0, 0): integration non-convergence" \
        in res.output
    assert '"suite"' not in res.output and "Traceback" not in res.output


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_ortho_command(runner):
    res = run(runner, "ortho", "--case", "l2", "--ell", "1", "--alpha", "-2",
              "--nmax", "4")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 4
    assert float(data["max_offdiag"]) < 1e-10
    assert data["gram"][0][0] == 1.0


def test_ortho_at_a_limit_circle_point(runner):
    # the (1+eta)^(-1/2) weight factor comes from each node's distance to
    # eta = -1, so the nodes that round onto that end keep their weight
    res = run(runner, "ortho", "--case", "j1", "--ell", "0", "--alpha", "2", "--beta", "-1/2",
              "--nmax", "12")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 12
    assert float(data["max_offdiag"]) < 1e-12


# a NaN measurement where the maximum scan meets it first, or last
NAN_ORDERS = {"first": (math.nan, 1e-15, 1e-15), "last": (1e-15, 1e-15, math.nan)}


@pytest.mark.parametrize("where", list(NAN_ORDERS))
def test_ortho_fails_on_a_nan_entry(runner, monkeypatch, where):
    a, b, c = NAN_ORDERS[where]
    matrix = ((1.0, a, b), (a, 1.0, c), (b, c, 1.0))
    monkeypatch.setattr(exopoly.quadrature, "gram", lambda sys, N: GramReport(3, matrix))
    res = run(runner, "ortho", "--case", "l2", "--ell", "1", "--alpha", "-2", "--nmax", "3")
    assert res.exit_code == 2
    assert '"max_offdiag": nan' in res.output


@pytest.mark.parametrize("where", list(NAN_ORDERS))
def test_spectrum_fails_on_a_nan_error(runner, monkeypatch, where):
    def with_nan(sys, k, grid):
        return dataclasses.replace(compare_spectrum(sys, k, grid), errors=NAN_ORDERS[where])

    monkeypatch.setattr(exopoly.spectral, "compare_spectrum", with_nan)
    res = run(runner, "spectrum", "--case", "l2", "--ell", "1", "--alpha", "-2", "-k", "3")
    assert res.exit_code == 2
    assert '"max_error": nan' in res.output


def test_help_lists_every_command_and_default(runner):
    # the group defines its commands at first lookup, so --help must name all six
    res = runner.invoke(cli, ["--help"], terminal_width=80, catch_exceptions=False)
    assert res.exit_code == 0
    listed = res.output.split("Commands:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in listed] == [
        "construct", "ortho", "plotdata", "spectrum", "verify", "zeros"]
    assert "CSV columns x, V(x), phi_0(x)..phi_nmax(x) on an interior grid." in res.output
    res = runner.invoke(cli, ["verify", "--help"], terminal_width=80)
    assert all(name in res.output for name in SUITES)
    res = runner.invoke(cli, ["spectrum", "--help"], terminal_width=80)
    text = " ".join(res.output.split())
    assert "0.001..12 on the half line" in text
    assert "0.001..pi/2-0.001 on (0, pi/2)" in text


def test_help_summaries_fit_80_columns(runner):
    # click cuts a summary that does not fit beside the name column with "..."
    res = runner.invoke(cli, ["--help"], terminal_width=80, catch_exceptions=False)
    rows = res.output.split("Commands:\n", 1)[1].splitlines()
    assert len(rows) == 6 and not [row for row in rows if row.endswith("...")]
    for name, exit_2 in (("ortho", "Exit 2 above --tol."), ("zeros", "Exit 2 on a mismatch.")):
        res = runner.invoke(cli, [name, "--help"], terminal_width=80, catch_exceptions=False)
        assert exit_2 in res.output


def test_version_is_the_package_version(runner):
    res = run(runner, "--version")
    assert res.exit_code == 0
    assert res.output == f"exopoly, version {exopoly.__version__}\n"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == exopoly.__version__


@pytest.mark.skipif(not hasattr(click.exceptions, "NoSuchCommand"),
                    reason="click < 8.2 offers no close command names")
def test_unknown_command_suggests_the_nearest():
    res = _main("verfy")
    assert res.returncode == 1 and res.stdout == ""
    assert "No such command 'verfy'. Did you mean 'verify'?" in res.stderr


def test_spectrum_command(runner):
    res = run(runner, "spectrum", "--case", "l2", "--ell", "1", "--alpha", "-2",
              "-k", "3", "--points", "1200")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert [lv["analytic"] for lv in data["levels"]] == ["4", "8", "12"]
    assert data["max_error"] < 1e-3
    assert (data["grid"]["points"], data["grid"]["coarse_points"]) == (1200, 599)


def test_zeros_single_and_sweep(runner):
    res = run(runner, "zeros", "--kind", "laguerre", "--ell", "2", "--alpha", "-3")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["rows"][0]["predicted"] == 0 and data["rows"][0]["match"] is True

    res = run(runner, "zeros", "--sweep", "25", "--seed", "11")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["rows"]) == 25 and data["mismatches"] == 0


def test_zeros_sweep_draws_the_suite_sampler(runner):
    # `zeros --sweep` and the zero-count suite read one random stream
    res = run(runner, "zeros", "--sweep", "25", "--seed", "3")
    rows = json.loads(res.output)["rows"]
    got = [(r["kind"], r["degree"], Fraction(r["alpha"]),
            None if r["beta"] is None else Fraction(r["beta"])) for r in rows]
    draws = zero_count_draws(3)
    assert got == [(p.kind, p.n, p.alpha, p.beta) for p in (next(draws) for _ in range(25))]


def test_zeros_requires_arguments(runner):
    res = run(runner, "zeros")
    assert res.exit_code == 1


@pytest.mark.parametrize("option, value", [
    ("--kind", "laguerre"), ("--ell", "2"), ("--alpha", "1/2"), ("--beta", "1/2"),
])
def test_zeros_sweep_rejects_single_query_options(runner, option, value):
    res = run(runner, "zeros", "--sweep", "2", option, value)
    assert res.exit_code == 1
    assert "--kind/--ell/--alpha" in res.output and "--sweep N" in res.output


def test_zeros_seed_needs_a_sweep(runner):
    # a single query has no random draws, so a --seed there is a usage error
    res = run(runner, "zeros", "--kind", "laguerre", "--ell", "3", "--alpha", "1/2", "--seed", "9")
    assert res.exit_code == 1
    assert "--kind/--ell/--alpha" in res.output and "--sweep N" in res.output
    # a sweep without --seed still draws seed 7
    assert run(runner, "zeros", "--sweep", "5").output == \
        run(runner, "zeros", "--sweep", "5", "--seed", "7").output


def test_zeros_laguerre_query_rejects_beta(runner):
    res = run(runner, "zeros", "--kind", "laguerre", "--ell", "3", "--alpha", "1/2",
              "--beta", "1/2")
    assert res.exit_code == 1
    assert res.output.strip() == "a laguerre zero count takes no beta (got beta=1/2)"


def test_zeros_negative_sweep_rejected(runner):
    res = run(runner, "zeros", "--sweep", "-3")
    assert res.exit_code == 1
    assert res.output.strip() == "--sweep must be >= 0"


@pytest.mark.parametrize("query", [
    ("--kind", "laguerre", "--ell", "-2", "--alpha", "1/2"),
    ("--kind", "jacobi", "--ell", "-1", "--alpha", "1/2", "--beta", "1/2"),
])
def test_zeros_negative_ell_rejected(query):
    res = _main("zeros", *query)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == f"degree must be nonnegative (got n={query[3]})\n"
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args, named", [
    (("construct", "--case", "extj", "--ell", "2", "--alpha", "-2", "--beta", "-8", "--nmax", "8"),
     "binomial sign test is zero (case extj; alpha=-2, beta=-8, ell=2)"),
    (("construct", "--case", "extj", "--ell", "2", "--alpha", "-2", "--beta", "-1e5000"),
     "(case extj; alpha=-2, beta=-1" + "0" * 5000 + ", ell=2)"),
    (("zeros", "--kind", "jacobi", "--ell", "2", "--alpha", "-2", "--beta", "-8"),
     "binomial sign test is zero (n=2, alpha=-2, beta=-8)"),
    (("zeros", "--kind", "jacobi", "--ell", "2", "--alpha", "-2", "--beta", "1e5000"),
     "(n=2, alpha=-2, beta=1" + "0" * 5000 + ")"),
], ids=["construct", "construct-5001-digits", "zeros", "zeros-5001-digits"])
def test_sign_test_failures_name_their_parameters(args, named):
    res = _main(*args)
    assert res.returncode == 1 and res.stdout == ""
    assert named in res.stderr and "Traceback" not in res.stderr


def test_spectrum_too_few_points_rejected():
    # below GridSpec's own minimum of 100, the message still names the case and the real minimum
    res = _main("spectrum", "--case", "l2", "--ell", "1", "--alpha", "-2", "--points", "50")
    assert res.returncode == 1 and res.stdout == ""
    assert "case l2 (ell=1, alpha=-2, beta=None), 50-point grid" in res.stderr
    assert "at least 201 points" in res.stderr and "Traceback" not in res.stderr


def test_spectrum_grid_without_a_coarse_partner_rejected():
    # 150 points pass GridSpec, but the coarse grid would have only 74
    res = _main("spectrum", "--case", "l2", "--ell", "1", "--alpha", "-2", "--points", "150")
    assert res.returncode == 1 and res.stdout == ""
    assert "case l2 (ell=1, alpha=-2, beta=None), 150-point grid" in res.stderr
    assert "at least 201 points" in res.stderr and "Traceback" not in res.stderr


def test_spectrum_infinite_potential_reported_without_numpy_noise():
    # the first node, x = 1e-203, squares to 0.0, so V is inf there
    res = _main("spectrum", "--case", "l2", "--ell", "1", "--alpha", "-2",
                "--x-min", "0", "--x-max", "1e-200")
    assert res.returncode == 1 and res.stdout == ""
    assert "RuntimeWarning" not in res.stderr and "np.float64" not in res.stderr
    assert "case l2 (ell=1, alpha=-2, beta=None)" in res.stderr
    assert "(x=1e-203, V=inf)" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("command, name", [
    (["spectrum", "-k", "3"], "spectrum"),
    (["ortho"], "ortho"),
    (["plotdata", "--points", "5"], "plotdata"),
    (["construct", "--format", "csv"], "construct"),
    # alpha = 1000 has a float, but the Gram norms overflow it
    (["ortho", "--nmax", "3", "--alpha", "1000"], "ortho"),
])
def test_parameters_beyond_the_float_range_fail_cleanly(command, name):
    # admissible for l1, but alpha = 10^400 has no float; a later --alpha wins
    res = _main(command[0], "--case", "l1", "--ell", "1", "--alpha", "1e400", *command[1:])
    alpha = command[-1] if "--alpha" in command else 10**400
    assert res.returncode == 1 and res.stdout == ""
    assert f"case l1 (ell=1, alpha={alpha}, beta=None)" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert f"the float method of {name} cannot represent" in res.stderr
    assert "cannot represent these parameters" in res.stderr and "Traceback" not in res.stderr


def test_a_labelled_overflow_keeps_its_level():
    res = _main("ortho", "--case", "l1", "--ell", "1", "--alpha", "200", "--nmax", "3")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("case l1 (ell=1, alpha=200, beta=None): beyond the float "
                                 "range; the float method of ortho cannot represent")
    assert "tanh-sinh level 1" in res.stderr and "Traceback" not in res.stderr


def test_an_unlabelled_overflow_prints_the_generic_sentence_only():
    # alpha = 10^400 overflows float(), whose message carries no label
    res = _main("plotdata", "--case", "l1", "--ell", "1", "--alpha", "1e400", "--points", "5")
    assert res.returncode == 1
    assert res.stderr.endswith("beta=None): beyond the float range; the float method of "
                               "plotdata cannot represent these parameters\n")


POINT_COMMANDS = ["construct", "ortho", "spectrum", "plotdata"]


def test_point_commands_share_their_point_options():
    def leading(name):
        command = cli.get_command(click.Context(cli), name)
        return [(p.name, p.opts, p.required, p.help) for p in command.params[:4]]

    assert [opts for _, opts, _, _ in leading("construct")] == [
        ["--case"], ["--ell"], ["--alpha"], ["--beta"]]
    for name in POINT_COMMANDS[1:]:
        assert leading(name) == leading("construct")


def test_every_option_has_help():
    # --case, construct --format, plotdata --points and four zeros options once printed none
    ctx = click.Context(cli)
    bare = [(name, param.opts) for name in cli.list_commands(ctx)
            for param in cli.get_command(ctx, name).params
            if isinstance(param, click.Option) and not param.hidden and not param.help]
    assert bare == []

@pytest.mark.parametrize("command", [
    ["ortho", "--nmax", "1"],
    ["spectrum", "--x-min", "2", "--x-max", "1"],
], ids=["ortho", "spectrum"])
def test_point_command_errors_name_the_case(command):
    res = _main(command[0], "--case", "l2", "--ell", "1", "--alpha", "-2", *command[1:])
    assert res.returncode == 1 and res.stdout == ""
    assert "case l2 (ell=1, alpha=-2, beta=None)" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("command", POINT_COMMANDS)
def test_point_commands_reject_a_negative_ell(command):
    res = _main(command, "--case", "l2", "--ell", "-1", "--alpha", "-2")
    assert res.returncode == 1 and res.stdout == ""
    assert "ell must be an integer >= 0" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["ortho", "spectrum"])
def test_non_finite_or_non_positive_tol_rejected(command, tol):
    # spectrum fails at this point, so a NaN --tol used to turn its gate off
    res = _main(command, "--case", "l1", "--ell", "0", "--alpha", "-1", "--tol", tol)
    assert res.returncode == 1 and res.stdout == ""
    assert "--tol must be finite and > 0" in res.stderr and "Traceback" not in res.stderr


def test_plotdata_takes_fewer_points_than_a_spectral_grid():
    # --points >= 2 is documented; the box is the spectral default box
    res = _main("plotdata", "--case", "j1", "--ell", "1", "--alpha", "1/2", "--beta", "-5/2",
                "--points", "7", "--nmax", "1")
    assert res.returncode == 0 and "Traceback" not in res.stderr
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
    assert len(rows) == 7
    assert float(rows[0][0]) == 1e-3 and float(rows[-1][0]) == math.pi / 2 - 1e-3
    res = _main("plotdata", "--case", "j1", "--ell", "1", "--alpha", "1/2", "--beta", "-5/2",
                "--points", "1")
    assert res.returncode == 1 and "--points must be >= 2" in res.stderr


def test_plotdata(runner):
    res = run(runner, "plotdata", "--case", "l2", "--ell", "1", "--alpha", "-2",
              "--points", "500", "--nmax", "2")
    lines = res.output.strip().splitlines()
    assert lines[0] == "x,V,phi0,phi1,phi2"
    assert len(lines) == 501
    for line in lines[1:]:
        assert all(abs(float(tok)) < 1e12 for tok in line.split(","))
