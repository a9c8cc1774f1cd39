"""Statistics of quantum-gate fidelity over Haar-uniform input states.

Closed-form mean, variance and (for qubits) the full fidelity distribution
of unitary, general linear, subspace-restricted and Kraus-form operations,
with a Monte-Carlo oracle and a derivative-free gate tuner.
"""

__version__ = "0.1.0"

from .linalg import QubitSpectrum, eig2_normal
from .moments import (
    GateSpec,
    KrausMap,
    MomentReport,
    NoAcceptanceError,
    avg_fidelity,
    conditional_fidelity,
    fourth_moment_general,
    gate_moments,
    kraus_avg_fidelity,
    variance,
)
from .optimize import (
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
    normal_pdf,
    quadrature_moments,
)
from .sampling import (
    Histogram,
    HistogramComparison,
    McEstimate,
    compare_histogram,
    mc_moment,
    mc_sample,
    monomial_integral_exact,
)

__all__ = [
    "DegenerateSpectrumError",
    "FidelityDistribution",
    "GateFamily",
    "GateSpec",
    "Histogram",
    "HistogramComparison",
    "KrausMap",
    "McEstimate",
    "MomentReport",
    "NoAcceptanceError",
    "Objective",
    "OptimizationResult",
    "OptimizeConfig",
    "QubitSpectrum",
    "avg_fidelity",
    "build_family",
    "compare_histogram",
    "conditional_fidelity",
    "eig2_normal",
    "evaluate_objective",
    "fourth_moment_general",
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
