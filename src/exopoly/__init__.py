"""Exactly solvable quantum systems from deformed classical polynomial families.

The package constructs, over exact rational arithmetic, the rationally
extended radial-oscillator and trigonometric systems whose eigenfunctions
involve exceptional Laguerre/Jacobi-type polynomial families, and verifies
them three independent ways: exact polynomial identities, numerical
orthogonality under the deformed weights, and a finite-difference eigensolver.
"""

from .classical import (
    IDENTITIES,
    TheoremHypothesisError,
    ZeroCountPrediction,
    binomial,
    jacobi,
    jacobi_is_degree_degenerate,
    klein_E,
    laguerre,
    nodeless_condition,
    predict_zero_count,
)
from .polycore import (
    ETA,
    IndeterminateRootCountError,
    Interval,
    Poly,
    rat,
    sturm_count,
)
from .quadrature import (
    GramReport,
    QuadratureConvergenceError,
    gram,
)
from .spectral import (
    GridSpec,
    SpectrumReport,
    Tridiag,
    compare_spectrum,
    default_grid,
    discretize,
    eigen_lowest,
    richardson_lowest,
    tridiag_from_potential,
)
from .systems import (
    Case,
    ConstructionError,
    NodelessnessError,
    ParameterError,
    Params,
    WeightExponents,
    XSystem,
    build_system,
    energy,
    exceptional_poly,
    family_energy,
    shifted_form_poly,
    level_poly,
    ode_residual,
    potential_eval,
    proportionality,
    wavefunction_eval,
)
from .verify import SUITES, VerifyOutcome, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact core
    "rat", "Poly", "ETA", "Interval", "sturm_count", "IndeterminateRootCountError",
    # classical families
    "laguerre", "jacobi", "jacobi_is_degree_degenerate", "binomial",
    "IDENTITIES", "klein_E", "predict_zero_count",
    "nodeless_condition", "ZeroCountPrediction", "TheoremHypothesisError",
    # systems
    "Case", "Params", "XSystem", "WeightExponents",
    "build_system", "energy", "family_energy", "exceptional_poly", "shifted_form_poly",
    "level_poly", "proportionality", "ode_residual", "potential_eval",
    "wavefunction_eval",
    "ParameterError", "NodelessnessError", "ConstructionError",
    # quadrature
    "gram", "GramReport", "QuadratureConvergenceError",
    # spectral
    "GridSpec", "Tridiag", "tridiag_from_potential", "discretize",
    "eigen_lowest", "richardson_lowest", "compare_spectrum", "default_grid", "SpectrumReport",
    # verification suites
    "SUITES", "run_suite", "VerifyOutcome",
]
