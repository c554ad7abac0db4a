"""Golden stdout: CLI output must stay byte-identical across refactors.

``golden_stdout.json`` holds, for each command, the sha256 of its stdout and
its exit code, and the platform they were recorded on.  Exit codes and the
exact ``construct`` output are checked everywhere.  Printed floats are checked
only on the recording platform: libm may round the last bit differently
elsewhere, and from Python 3.12 on ``sum`` of floats is compensated.
Regenerate the file only from a commit whose output is trusted:

    PYTHONPATH=src python tests/test_golden_stdout.py
"""

import hashlib
import json
import platform
from pathlib import Path

import pytest
from click.testing import CliRunner

from exopoly.cli import cli
from exopoly.verify import REPRESENTATIVE

GOLDEN = Path(__file__).with_name("golden_stdout.json")

# two limit-circle points: spectrum fails at both; ortho at j1 (0, 2, -1/2)
# failed too until the tanh-sinh nodes carried their endpoint distances
KNOWN_FAILING = [
    ["--case", "l1", "--ell", "0", "--alpha", "-1"],
    ["--case", "j1", "--ell", "0", "--alpha", "2", "--beta", "-1/2"],
]


def golden_commands() -> list[list[str]]:
    points = []
    for case, p in REPRESENTATIVE.items():
        args = ["--case", case.value, "--ell", str(p.ell), "--alpha", str(p.alpha)]
        if p.beta is not None:
            args += ["--beta", str(p.beta)]
        points.append(args)
    points += KNOWN_FAILING
    commands = []
    for point in points:
        commands += [
            ["construct", *point, "--nmax", "12"],
            ["ortho", *point, "--nmax", "12"],
            ["spectrum", *point, "-k", "5"],
            ["plotdata", *point, "--points", "2000"],
        ]
    return commands + [
        ["verify"],
        ["verify", "--inject", "p-l2-sign-flip"],
        ["zeros", "--sweep", "200"],
        ["zeros", "--kind", "laguerre", "--ell", "3", "--alpha", "1/2"],
        ["construct", "--case", "l2", "--ell", "1", "--alpha", "-2", "--nmax", "3",
         "--format", "csv"],
    ]


def platform_facts() -> dict:
    return {"machine": platform.machine(), "libc": " ".join(platform.libc_ver()),
            "python": ".".join(platform.python_version_tuple()[:2])}


def run_command(args: list[str]) -> dict:
    res = CliRunner().invoke(cli, args)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    return {
        "args": args,
        "sha256": hashlib.sha256(res.stdout_bytes).hexdigest(),
        "exit_code": res.exit_code,
    }


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"commands": []}


def test_golden_covers_every_command():
    assert [e["args"] for e in RECORDED["commands"]] == golden_commands()


@pytest.mark.parametrize("entry", RECORDED["commands"], ids=lambda e: " ".join(e["args"]))
def test_stdout_byte_identical(entry):
    got = run_command(entry["args"])
    assert got["exit_code"] == entry["exit_code"]
    if entry["args"][0] != "construct" and platform_facts() != RECORDED["platform"]:
        pytest.skip(f"float output recorded on {RECORDED['platform']}")
    assert got["sha256"] == entry["sha256"]


if __name__ == "__main__":
    record = {"platform": platform_facts(),
              "commands": [run_command(args) for args in golden_commands()]}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
