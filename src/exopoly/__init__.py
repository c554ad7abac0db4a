"""Exactly solvable quantum systems from deformed classical polynomial families.

The package constructs, over exact rational arithmetic, the rationally
extended radial-oscillator and trigonometric systems whose eigenfunctions
involve exceptional Laguerre/Jacobi-type polynomial families, and verifies
them three independent ways: exact polynomial identities, numerical
orthogonality under the deformed weights, and a finite-difference eigensolver.
"""

__version__ = "0.1.0"


def _register_lazily(*layers):
    """Register each layer in sys.modules and on the package; it runs at first use
    (LazyLoader).  perfbench/tracer.py reads the layers from sys.modules after
    `import exopoly.cli`; once it resolves them as they load, PEP 562 can replace this."""
    import importlib.util
    import sys
    for layer in layers:
        spec = importlib.util.find_spec(f"{__name__}.{layer}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        globals()[layer] = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(globals()[layer])


_register_lazily("polycore", "classical", "systems", "quadrature", "spectral", "verify")

# each public name once, under the module that defines it, in __all__'s order
_EXPORTS = {
    "polycore": ("rat", "Poly", "ETA", "Interval", "sturm_count",
                 "IndeterminateRootCountError"),
    "classical": ("laguerre", "jacobi", "jacobi_is_degree_degenerate", "binomial",
                  "IDENTITIES", "klein_E", "predict_zero_count", "nodeless_condition",
                  "ZeroCountPrediction", "TheoremHypothesisError"),
    "systems": ("Case", "Params", "XSystem", "WeightExponents", "build_system", "energy",
                "family_energy", "exceptional_poly", "shifted_form_poly", "level_poly",
                "proportionality", "ode_residual", "potential_eval", "wavefunction_eval",
                "ParameterError", "NodelessnessError", "ConstructionError"),
    "quadrature": ("gram", "GramReport", "QuadratureConvergenceError"),
    "spectral": ("GridSpec", "Tridiag", "tridiag_from_potential", "discretize",
                 "eigen_lowest", "richardson_lowest", "compare_spectrum", "default_grid",
                 "SpectrumReport"),
    "verify": ("SUITES", "run_suite", "VerifyOutcome"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Resolve a public name from its submodule at each access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
