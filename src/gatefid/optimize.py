"""Derivative-free tuning of parameterized gate implementations.

Maximizes an average-fidelity objective over a box in parameter space with a
Nelder-Mead simplex (reflect 1, expand 2, contract 0.5, shrink 0.5). Box
constraints are enforced by clamping every probe point, so the method is
deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .linalg import NotNormalError, as_matrix, eig2_normal
from .moments import avg_fidelity, comparison_matrix, variance
from .qubit_dist import DegenerateSpectrumError, normal_pdf

OBJECTIVE_KINDS = ("mean", "mean_minus_k_sigma", "min_support")


class EvaluatorError(RuntimeError):
    """A gate family evaluator failed at a probe point."""

    def __init__(self, message: str, params: np.ndarray):
        super().__init__(message)
        self.params = params


@dataclass(frozen=True, eq=False)
class GateFamily:
    """Parameterized family of gate implementations against a fixed target."""

    dim: int
    param_count: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    target: np.ndarray
    subspace: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "target", as_matrix(self.target))
        if self.target.shape[0] != self.dim:
            raise ValueError("target dimension does not match the family")


@dataclass(frozen=True)
class Objective:
    """What to maximize: the mean, a risk-penalized mean, or the support floor."""

    kind: str
    k: float = 0.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError("k must be finite and non-negative")


@dataclass(frozen=True)
class OptimizeConfig:
    start: tuple[float, ...]
    box: tuple[tuple[float, float], ...]
    max_evals: int | None = None
    x_tol: float = 1e-8
    f_tol: float = 1e-10
    record_trace: bool = False


@dataclass(eq=False)
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    evaluations: int
    converged: bool
    trace: list[tuple[np.ndarray, float]] | None = None


def _comparison_matrix(fam: GateFamily, params: np.ndarray) -> np.ndarray:
    try:
        actual = as_matrix(fam.evaluator(params))
    except Exception as exc:
        raise EvaluatorError(
            f"evaluator failed at {params.tolist()}: {exc}", params
        ) from exc
    if actual.shape[0] != fam.dim:
        raise EvaluatorError(
            f"evaluator returned dimension {actual.shape[0]}, expected {fam.dim}",
            params,
        )
    return comparison_matrix(fam.target, actual, fam.subspace)


def evaluate_objective(fam: GateFamily, obj: Objective, params: Sequence[float]) -> float:
    """Objective value at a parameter vector."""
    params = np.asarray(params, dtype=float)
    m = _comparison_matrix(fam, params)
    if obj.kind == "mean":
        return avg_fidelity(m)
    if obj.kind == "mean_minus_k_sigma":
        rep = variance(m)
        return rep.mean - obj.k * math.sqrt(rep.variance)
    needs = "min_support needs a 2x2 normal comparison matrix"
    if m.shape[0] != 2:
        raise ValueError(needs)
    try:
        spectrum = eig2_normal(m)
    except NotNormalError as exc:
        raise ValueError(needs) from exc
    try:
        return normal_pdf(spectrum).support()[0]
    except DegenerateSpectrumError as exc:
        # A degenerate map concentrates all fidelity at one point, which is
        # also the support floor in the non-degenerate limit.
        return exc.point_mass


def _initial_simplex(
    start: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> list[np.ndarray]:
    verts = [start.copy()]
    for j in range(start.size):
        step = 0.1 * (hi[j] - lo[j])
        vert = start.copy()
        vert[j] = vert[j] + step if vert[j] + step <= hi[j] else vert[j] - step
        verts.append(vert)
    return verts


def optimize(fam: GateFamily, obj: Objective, config: OptimizeConfig) -> OptimizationResult:
    """Maximize the objective over the box with Nelder-Mead.

    Converges when the simplex diameter drops below ``x_tol`` or the value
    spread below ``f_tol``. The result is never worse than the start point.
    """
    p = len(config.start)
    if p != fam.param_count:
        raise ValueError(f"expected {fam.param_count} parameters, got {p}")
    if len(config.box) != p:
        raise ValueError("box must have one (lo, hi) pair per parameter")
    lo = np.array([b[0] for b in config.box], dtype=float)
    hi = np.array([b[1] for b in config.box], dtype=float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
        raise ValueError("box bounds must be finite with lo < hi")
    start = np.asarray(config.start, dtype=float)
    if not ((lo <= start) & (start <= hi)).all():
        raise ValueError(f"start point {start.tolist()} lies outside the box")
    max_evals = config.max_evals if config.max_evals is not None else 500 * p
    if max_evals < p + 2:
        raise ValueError("max_evals must be at least param_count + 2")

    trace: list[tuple[np.ndarray, float]] | None = [] if config.record_trace else None
    evals = 0

    def neg_objective(x: np.ndarray) -> float:
        nonlocal evals
        value = evaluate_objective(fam, obj, x)
        evals += 1
        if trace is not None:
            trace.append((x.copy(), value))
        return -value

    def clamp(x: np.ndarray) -> np.ndarray:
        return np.clip(x, lo, hi)

    verts = _initial_simplex(start, lo, hi)
    values = [neg_objective(v) for v in verts]
    converged = False
    while evals < max_evals:
        order = np.argsort(values, kind="stable")
        verts = [verts[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(float(np.abs(v - verts[0]).max()) for v in verts[1:])
        if diameter < config.x_tol or values[-1] - values[0] < config.f_tol:
            converged = True
            break
        centroid = np.mean(verts[:-1], axis=0)
        reflected = clamp(centroid + (centroid - verts[-1]))
        f_reflected = neg_objective(reflected)
        if f_reflected < values[0]:
            expanded = clamp(centroid + 2.0 * (centroid - verts[-1]))
            f_expanded = neg_objective(expanded)
            if f_expanded < f_reflected:
                verts[-1], values[-1] = expanded, f_expanded
            else:
                verts[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            verts[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = clamp(centroid + 0.5 * (reflected - centroid))
        else:
            contracted = clamp(centroid + 0.5 * (verts[-1] - centroid))
        f_contracted = neg_objective(contracted)
        if f_contracted < min(f_reflected, values[-1]):
            verts[-1], values[-1] = contracted, f_contracted
            continue
        for i in range(1, len(verts)):
            verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
            values[i] = neg_objective(verts[i])

    best = int(np.argmin(values))
    return OptimizationResult(
        best_params=verts[best].copy(),
        best_value=-values[best],
        evaluations=evals,
        converged=converged,
        trace=trace,
    )


# Built-in families: a single tunable phase, two independent phases, a leaky
# two-level block embedded unitarily in three levels, and a diagonal normal
# map with the second eigenvalue free in polar form.


def _phase_map(params: np.ndarray) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * params[0])]).astype(np.complex128)


def _two_phase_map(params: np.ndarray) -> np.ndarray:
    return np.diag(np.exp(1j * np.asarray(params))).astype(np.complex128)


def _leaky_map(params: np.ndarray) -> np.ndarray:
    mag, phase = params
    alpha = mag * np.exp(1j * phase)
    s = math.sqrt(max(0.0, 1.0 - mag * mag))
    out = np.eye(3, dtype=np.complex128)
    out[1, 1] = alpha
    out[1, 2] = s
    out[2, 1] = -s
    out[2, 2] = np.conjugate(alpha)
    return out


def _polar_eig_map(params: np.ndarray) -> np.ndarray:
    r, psi = params
    return np.diag([0.7 * np.exp(1j * np.pi / 8), r * np.exp(1j * psi)]).astype(
        np.complex128
    )


# Registered against the identity target; build_family swaps in the real one.
FAMILIES: dict[str, GateFamily] = {
    "phase": GateFamily(2, 1, _phase_map, np.eye(2)),
    "two_phase": GateFamily(2, 2, _two_phase_map, np.eye(2)),
    "leaky": GateFamily(3, 2, _leaky_map, np.eye(3), subspace=(0, 1)),
    "polar_eig": GateFamily(2, 2, _polar_eig_map, np.eye(2)),
}


def build_family(
    name: str,
    target: np.ndarray,
    subspace: Sequence[int] | None = None,
) -> GateFamily:
    """Instantiate a registered family against a target matrix."""
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    family = FAMILIES[name]
    sel = tuple(subspace) if subspace is not None else family.subspace
    return replace(family, target=target, subspace=sel)
