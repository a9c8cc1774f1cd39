"""Statistics of quantum-gate fidelity over Haar-uniform input states.

Closed-form mean, variance and (for qubits) the full fidelity distribution
of unitary, general linear, subspace-restricted and Kraus-form operations,
with a Monte-Carlo oracle and a derivative-free gate tuner.
"""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_TOL,
    NotNormalError,
    QubitSpectrum,
    adjoint,
    as_matrix,
    eig2_normal,
)
from .moments import (
    GateSpec,
    KrausMap,
    MomentReport,
    NoAcceptanceError,
    avg_fidelity,
    conditional_fidelity,
    depolarizing_kraus,
    fourth_moment_general,
    fourth_moment_hermitian,
    gate_moments,
    kraus_avg_fidelity,
    variance,
)
from .optimize import (
    FAMILIES,
    GateFamily,
    Objective,
    OptimizationResult,
    OptimizeConfig,
    build_family,
    evaluate_objective,
    optimize,
)
from .qubit_dist import (
    DegenerateSpectrumError,
    FidelityDistribution,
    HistogramComparison,
    compare_histogram,
    normal_pdf,
    quadrature_moments,
)
from .sampling import (
    Histogram,
    McEstimate,
    mc_moment,
    mc_sample,
    monomial_integral_exact,
)

__all__ = [
    "DEFAULT_TOL",
    "DegenerateSpectrumError",
    "FAMILIES",
    "FidelityDistribution",
    "GateFamily",
    "GateSpec",
    "Histogram",
    "HistogramComparison",
    "KrausMap",
    "McEstimate",
    "MomentReport",
    "NoAcceptanceError",
    "NotNormalError",
    "Objective",
    "OptimizationResult",
    "OptimizeConfig",
    "QubitSpectrum",
    "adjoint",
    "as_matrix",
    "avg_fidelity",
    "build_family",
    "compare_histogram",
    "conditional_fidelity",
    "depolarizing_kraus",
    "eig2_normal",
    "evaluate_objective",
    "fourth_moment_general",
    "fourth_moment_hermitian",
    "gate_moments",
    "kraus_avg_fidelity",
    "mc_moment",
    "mc_sample",
    "monomial_integral_exact",
    "normal_pdf",
    "optimize",
    "quadrature_moments",
    "variance",
]
