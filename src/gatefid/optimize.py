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

from .linalg import ConfigError, as_matrix, eig2_normal
from .moments import MomentReport, _checked_target, _fourth, _mean, _quiet_overflow, comparison_matrix
from .qubit_dist import DegenerateSpectrumError, normal_pdf

OBJECTIVE_KINDS = ("mean", "mean_minus_k_sigma", "min_support")


class EvaluatorError(RuntimeError):
    """A gate family evaluator failed at a probe point."""

    def __init__(self, message: str, params: np.ndarray):
        super().__init__(message)
        self.params = params


@dataclass(frozen=True, eq=False)
class GateFamily:
    """Parameterized family of gate implementations against a target checked as by GateSpec."""

    dim: int
    param_count: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    target: np.ndarray
    subspace: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "target", as_matrix(self.target))
        if self.target.shape[0] != self.dim:
            raise ConfigError("target dimension does not match the family")
        object.__setattr__(self, "subspace", _checked_target(self.target, self.subspace))


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


@dataclass(eq=False)
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    evaluations: int
    converged: bool
    trace: list[tuple[np.ndarray, float]]


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


@_quiet_overflow
def evaluate_objective(fam: GateFamily, obj: Objective, params: Sequence[float]) -> float:
    """Objective value at a parameter vector.

    The moments are taken on the product of the two matrices that
    :func:`_comparison_matrix` checked: a product that overflows gives a
    non-finite trace, which the moments refuse.
    """
    params = np.asarray(params, dtype=float)
    m = _comparison_matrix(fam, params)
    if obj.kind == "mean":
        return _mean(m)
    if obj.kind == "mean_minus_k_sigma":
        rep = MomentReport(n_eff=m.shape[0], mean=_mean(m), second_moment=_fourth(m))
        return rep.mean - obj.k * math.sqrt(rep.variance)
    try:
        spectrum = eig2_normal(m)
    except ConfigError as exc:  # the matrix comes from a probe: a result, not an input
        raise ValueError("min_support needs a 2x2 normal comparison matrix") from exc
    try:
        return normal_pdf(spectrum).support()[0]
    except DegenerateSpectrumError as exc:
        # A degenerate map concentrates all fidelity at one point, which is
        # also the support floor in the non-degenerate limit.
        return exc.point_mass


_Point = tuple[float, ...]


def _step(x: _Point, a: _Point, b: _Point, t: float) -> _Point:
    """``x + t (a - b)``, elementwise: the form of every simplex move."""
    return tuple(u + t * (v - w) for u, v, w in zip(x, a, b))


def _initial_simplex(start: _Point, lo: _Point, hi: _Point) -> list[_Point]:
    verts = [start]
    for j, (x, a, b) in enumerate(zip(start, lo, hi)):
        step = 0.1 * (b - a)
        x = x + step if x + step <= b else x - step
        verts.append(start[:j] + (x,) + start[j + 1 :])
    return verts


def optimize(fam: GateFamily, obj: Objective, config: OptimizeConfig) -> OptimizationResult:
    """Maximize the objective over the box with Nelder-Mead.

    Converges when the simplex diameter drops below ``x_tol`` or the value
    spread below ``f_tol``. The result is never worse than the start point,
    and its ``trace`` holds each probe's ``(params, value)`` in turn.

    The simplex is kept as tuples of Python floats: at one to a few
    parameters, numpy's per-call overhead outweighs the arithmetic. Each
    step is the same IEEE operation numpy would do elementwise, the centroid
    is the left-to-right sum over the count (``np.mean`` over axis 0), and
    the clamp returns the bound on a tie (``np.clip``), so the iterates are
    bit for bit those of the array form.
    """
    p = len(config.start)
    if p != fam.param_count:
        raise ConfigError(f"expected {fam.param_count} parameters, got {p}")
    if len(config.box) != p:
        raise ConfigError("box must have one (lo, hi) pair per parameter")
    lo = tuple(float(b[0]) for b in config.box)
    hi = tuple(float(b[1]) for b in config.box)
    if not all(math.isfinite(a) and math.isfinite(b) and a < b for a, b in zip(lo, hi)):
        raise ConfigError("box bounds must be finite with lo < hi")
    start = tuple(float(x) for x in config.start)
    if not all(a <= x <= b for x, a, b in zip(start, lo, hi)):
        raise ConfigError(f"start point {list(start)} lies outside the box")
    max_evals = config.max_evals if config.max_evals is not None else 500 * p
    if max_evals < p + 2:
        raise ConfigError("max_evals must be at least param_count + 2")
    if not (config.x_tol >= 0 and config.f_tol >= 0):  # NaN included
        raise ConfigError(f"x_tol and f_tol must be at least 0, got {config.x_tol} and {config.f_tol}")
    n = fam.dim if fam.subspace is None else len(fam.subspace)
    if obj.kind == "min_support" and n != 2:
        raise ConfigError(f"min_support needs a 2x2 comparison matrix, not {n}x{n}")

    trace: list[tuple[np.ndarray, float]] = []

    def neg_objective(x: _Point) -> float:
        params = np.array(x)
        value = evaluate_objective(fam, obj, params)
        trace.append((params, value))
        return -value

    def clamp(x: _Point) -> _Point:
        return tuple(a if v <= a else b if v >= b else v for v, a, b in zip(x, lo, hi))

    verts = _initial_simplex(start, lo, hi)
    values = [neg_objective(v) for v in verts]
    converged = False
    while len(trace) < max_evals:
        # Every value is finite (see evaluate_objective), so this stable sort
        # orders like np.argsort(kind="stable").
        order = sorted(range(len(values)), key=values.__getitem__)
        verts = [verts[i] for i in order]
        values = [values[i] for i in order]
        best, worst = verts[0], verts[-1]
        diameter = max(abs(u - b) for v in verts[1:] for u, b in zip(v, best))
        if diameter < config.x_tol or values[-1] - values[0] < config.f_tol:
            converged = True
            break
        total = verts[0]
        for v in verts[1:-1]:
            total = tuple(s + u for s, u in zip(total, v))
        centroid = tuple(s / p for s in total)
        reflected = clamp(_step(centroid, centroid, worst, 1.0))
        f_reflected = neg_objective(reflected)
        if f_reflected < values[0]:
            expanded = clamp(_step(centroid, centroid, worst, 2.0))
            f_expanded = neg_objective(expanded)
            if f_expanded < f_reflected:
                verts[-1], values[-1] = expanded, f_expanded
            else:
                verts[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            verts[-1], values[-1] = reflected, f_reflected
            continue
        inner = reflected if f_reflected < values[-1] else worst
        contracted = clamp(_step(centroid, inner, centroid, 0.5))
        f_contracted = neg_objective(contracted)
        if f_contracted < min(f_reflected, values[-1]):
            verts[-1], values[-1] = contracted, f_contracted
            continue
        for i in range(1, len(verts)):
            verts[i] = _step(best, verts[i], best, 0.5)
            values[i] = neg_objective(verts[i])

    k = min(range(len(values)), key=values.__getitem__)
    return OptimizationResult(
        best_params=np.array(verts[k]),
        best_value=-values[k],
        evaluations=len(trace),
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
    """Instantiate a registered family against a target matrix.

    An unknown name raises KeyError; a target or subspace selector that
    :class:`GateFamily` refuses raises :class:`ConfigError`.
    """
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    family = FAMILIES[name]
    return replace(family, target=target, subspace=family.subspace if subspace is None else subspace)
