"""What importing exopoly loads and binds: never numpy, every submodule eagerly,
and each public name, resolved from the submodule that defines it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exopoly

PUBLIC_NAMES = {
    "__version__",
    "rat", "Poly", "ETA", "Interval", "sturm_count", "IndeterminateRootCountError",
    "laguerre", "jacobi", "jacobi_is_degree_degenerate", "binomial",
    "IDENTITIES", "klein_E", "predict_zero_count",
    "nodeless_condition", "ZeroCountPrediction", "TheoremHypothesisError",
    "Case", "Params", "XSystem", "WeightExponents",
    "build_system", "energy", "family_energy", "exceptional_poly", "shifted_form_poly",
    "level_poly", "proportionality", "ode_residual", "potential_eval",
    "wavefunction_eval",
    "ParameterError", "NodelessnessError", "ConstructionError",
    "gram", "GramReport", "QuadratureConvergenceError",
    "GridSpec", "Tridiag", "tridiag_from_potential", "discretize",
    "eigen_lowest", "richardson_lowest", "compare_spectrum", "default_grid", "SpectrumReport",
    "SUITES", "run_suite", "VerifyOutcome",
}

# runs one command through main() and exits 3 if numpy was loaded
RUN_MAIN = """
import sys
from exopoly.cli import main
sys.argv = ["exopoly", *sys.argv[1:]]
try:
    main()
except SystemExit as exc:
    if exc.code:
        raise
sys.exit(3 if "numpy" in sys.modules else 0)
"""


def _fresh(code, *args):
    """Run code in a fresh interpreter that imports exopoly from this tree."""
    src = str(Path(exopoly.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_import_loads_no_numpy():
    res = _fresh("import sys, exopoly, exopoly.cli; assert 'numpy' not in sys.modules")
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("args", [
    ["--version"],
    ["construct", "--case", "extj", "--ell", "2", "--alpha", "-5/2", "--beta", "-5/2",
     "--nmax", "12"],
    ["zeros", "--kind", "laguerre", "--ell", "3", "--alpha", "1/2"],
    ["verify", "--suite", "xi-equation"],
])
def test_exact_commands_load_no_numpy(args):
    res = _fresh(RUN_MAIN, *args)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("args", [
    ["spectrum", "--case", "l2", "--ell", "1", "--alpha", "-2", "-k", "3"],
    ["plotdata", "--case", "extj", "--ell", "2", "--alpha", "-5/2", "--beta", "-5/2",
     "--points", "50"],
    ["verify", "--suite", "spectrum"],
])
def test_float_commands_without_gram_load_no_numpy(args):
    # potentials and wave functions run over plain floats
    res = _fresh(RUN_MAIN, *args)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("args", [
    ["ortho", "--case", "j1", "--ell", "0", "--alpha", "2", "--beta", "-1/2", "--nmax", "12"],
    ["verify"],
])
def test_gram_commands_load_no_numpy(args):
    # the Gram matrix runs over plain floats too, so no command loads numpy
    res = _fresh(RUN_MAIN, *args)
    assert res.returncode == 0, res.stderr


def test_type_hints_resolve_without_numpy():
    res = _fresh(
        "import sys, typing\n"
        "from exopoly.spectral import GridSpec, Tridiag, tridiag_from_potential\n"
        "from exopoly.systems import XSystem\n"
        "for obj in (Tridiag, GridSpec.interior, tridiag_from_potential, XSystem):\n"
        "    typing.get_type_hints(obj)\n"
        "assert 'numpy' not in sys.modules")
    assert res.returncode == 0, res.stderr


def test_float_modules_are_imported_eagerly():
    # perfbench/tracer.py reads these from sys.modules right after importing
    # exopoly.cli, and rebinds their functions in place
    res = _fresh("import sys, exopoly.cli; "
                 "assert {'exopoly.quadrature', 'exopoly.spectral'} <= set(sys.modules)")
    assert res.returncode == 0, res.stderr


def test_float_call_in_a_fresh_process():
    res = _fresh("import sys; from exopoly import Case, Params, build_system, gram; "
                 "rep = gram(build_system(Case('l2'), Params(1, -2)), 3); "
                 "assert rep.size == 3 and rep.max_offdiag < 1e-10, rep; "
                 "assert 'numpy' not in sys.modules")
    assert res.returncode == 0, res.stderr


def test_public_names_unchanged():
    assert set(exopoly.__all__) == PUBLIC_NAMES
    assert all(hasattr(exopoly, name) for name in PUBLIC_NAMES)


def test_star_import_binds_exactly_the_public_names():
    res = _fresh("import sys, exopoly\n"
                 "before = set(globals()) | {'before'}\n"
                 "from exopoly import *\n"
                 "assert set(globals()) - before == set(exopoly.__all__)\n"
                 "assert 'numpy' not in sys.modules")
    assert res.returncode == 0, res.stderr


def test_names_resolve_from_their_submodules():
    res = _fresh("import sys, exopoly\n"
                 "assert set(exopoly.__all__) <= set(dir(exopoly))\n"
                 "assert exopoly.gram is exopoly.quadrature.gram\n"
                 "try:\n"
                 "    exopoly.no_such_name\n"
                 "except AttributeError as exc:\n"
                 "    assert \"'exopoly'\" in str(exc), exc\n"
                 "else:\n"
                 "    sys.exit('no AttributeError')")
    assert res.returncode == 0, res.stderr
