"""What importing exopoly loads and binds: never numpy, every layer registered
in sys.modules but run only at first use, so a command runs only the layers it
calls, and each public name, resolved from the submodule that defines it."""

import ast
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


def test_import_loads_no_difflib():
    # only an unknown command's "Did you mean" needs difflib; click loads none
    res = _fresh("import sys, exopoly.cli; assert 'difflib' not in sys.modules")
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
        "from exopoly.polycore import Poly\n"
        "from exopoly.quadrature import _phi\n"
        "from exopoly.spectral import GridSpec, Tridiag, tridiag_from_potential\n"
        "from exopoly.systems import XSystem\n"
        "for obj in (Tridiag, GridSpec.interior, tridiag_from_potential, XSystem,\n"
        "            Poly.float_values, _phi):\n"
        "    typing.get_type_hints(obj)\n"
        "assert 'numpy' not in sys.modules")
    assert res.returncode == 0, res.stderr


def test_layers_are_registered_for_the_tracer():
    # perfbench/tracer.py reads the layers from sys.modules right after importing
    # exopoly.cli, and rebinds their functions in place
    res = _fresh("import sys, exopoly.cli\n"
                 "layers = {f'exopoly.{n}': sys.modules.get(f'exopoly.{n}') for n in "
                 "('polycore', 'classical', 'systems', 'quadrature', 'spectral', 'verify')}\n"
                 "assert None not in layers.values(), layers\n"
                 "assert callable(layers['exopoly.verify'].run_suite)\n"
                 "assert callable(layers['exopoly.quadrature'].gram)\n"
                 "assert callable(layers['exopoly.spectral'].eigen_lowest)\n"
                 "assert callable(layers['exopoly.classical'].jacobi)")
    assert res.returncode == 0, res.stderr


# runs one command through main() and prints the exopoly layers whose body ran:
# a layer still waiting under importlib.util.LazyLoader has another type
RAN_LAYERS = """
import sys, types
from exopoly.cli import main
sys.argv = ["exopoly", *sys.argv[1:]]
try:
    main()
except SystemExit as exc:
    if exc.code:
        raise
print(" ".join(sorted(name[len("exopoly."):] for name, m in sys.modules.items()
                      if name.startswith("exopoly.") and name != "exopoly.cli"
                      and type(m) is types.ModuleType)))
"""

POINT = ["--case", "l2", "--ell", "1", "--alpha", "-2"]
ALL_LAYERS = "classical polycore quadrature spectral systems verify"


@pytest.mark.parametrize("args, layers", [
    (["--version"], ""),
    (["zeros", "--kind", "laguerre", "--ell", "3", "--alpha", "1/2"], "classical polycore"),
    (["zeros", "--sweep", "5"], "classical polycore"),
    (["construct", *POINT], "classical polycore systems"),
    (["ortho", *POINT], "classical polycore quadrature systems"),
    (["spectrum", *POINT, "-k", "3"], "classical polycore spectral systems"),
    (["plotdata", *POINT, "--points", "50"], "classical polycore spectral systems"),
    (["verify"], ALL_LAYERS),
], ids=["version", "zeros", "zeros-sweep", "construct", "ortho", "spectrum", "plotdata", "verify"])
def test_each_command_runs_only_its_layers(args, layers):
    res = _fresh(RAN_LAYERS, *args)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == layers


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


def test_each_name_is_defined_where_the_table_places_it():
    # the table is the one record of each public name's home: a name only
    # imported there (Poly under systems, say) would still resolve
    src = Path(exopoly.__file__).parent
    for module, names in exopoly._EXPORTS.items():
        defined = set()
        for node in ast.parse((src / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        assert set(names) <= defined, (module, sorted(set(names) - defined))
