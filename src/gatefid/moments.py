"""Closed-form fidelity moments over Haar-uniform input states.

For a linear map ``m`` on C^n the fidelity of an input state is
``f = |<psi|m|psi>|^2``. This module evaluates the exact Haar averages of
``f`` and ``f^2`` from traces of small matrix products. Every average over
the full space or a subspace is :func:`avg_fidelity` / :func:`fourth_moment_general`
of one :func:`comparison_matrix`; the conditional fidelity is that subspace
mean divided by the mean acceptance ``||P u P||_F^2 / n_rel``, and the Kraus
form sums the same trace formula over the operators. No eigendecompositions
are used; every formula is a polynomial in traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, ConfigError, _is_unitary, adjoint, as_matrix, check_selector

ACCEPTANCE_EPS = 1e-14
VARIANCE_CLAMP = 1e-10

# An overflowing trace sum comes out non-finite and ``_real`` raises
# InvariantError for it (an overflowing Kraus completeness defect reads as not
# trace-preserving), so numpy's RuntimeWarnings on the way are noise.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


class NoAcceptanceError(ValueError):
    """Post-selection keeps essentially no population in the subspace."""


class InvariantError(ValueError):
    """A computed quantity breaks an identity of the formulas or overflows."""


def _real(z: complex, tol: float, what: str) -> float:
    """``z`` as a float; it must be finite and real to within ``tol``."""
    z = complex(z)
    if not (math.isfinite(z.real) and abs(z.imag) <= tol * max(1.0, abs(z.real))):
        raise InvariantError(f"{what} is not a representable real number: {z}")
    return z.real


@dataclass(frozen=True)
class MomentReport:
    """Mean, second moment and variance of the fidelity distribution.

    ``variance`` is ``second_moment - mean^2``, derived here. A negative
    difference within ``VARIANCE_CLAMP * max(1, second_moment)`` is rounding
    and reads 0; beyond it the moments contradict each other.
    """

    n_eff: int
    mean: float
    second_moment: float | None = None
    variance: float | None = field(init=False, default=None)

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError("mean must be non-negative")
        if self.second_moment is None:
            return
        raw = self.second_moment - self.mean * self.mean
        if not raw >= -VARIANCE_CLAMP * max(1.0, self.second_moment):
            raise InvariantError(f"variance {raw} is negative beyond rounding")
        object.__setattr__(self, "variance", max(0.0, raw))

    def as_dict(self) -> dict:
        out = {"n_eff": self.n_eff, "mean": self.mean, "method": "closed_form"}
        if self.second_moment is not None:
            out["second_moment"] = self.second_moment
        if self.variance is not None:
            out["variance"] = self.variance
        return out


def _checked_target(target: np.ndarray, subspace) -> tuple[int, ...] | None:
    """The one rule for a target from :func:`as_matrix`: unitary within ``DEFAULT_TOL``, or
    block-diagonal over a valid ``subspace`` selector and unitary on it. Returns the checked
    selector; a target it refuses raises :class:`ConfigError`."""
    if subspace is None:
        if not _is_unitary(target):
            raise ConfigError(f"target must be unitary within {DEFAULT_TOL:g}")
        return None
    sel = check_selector(subspace, target.shape[0])
    rest = [i for i in range(target.shape[0]) if i not in sel]
    off = np.concatenate([target[np.ix_(sel, rest)].ravel(), target[np.ix_(rest, sel)].ravel()])
    if float(np.abs(off).max(initial=0.0)) > DEFAULT_TOL:
        raise ConfigError("target must be block-diagonal over the subspace")
    if not _is_unitary(target[np.ix_(sel, sel)]):
        raise ConfigError(f"target must be unitary on the subspace within {DEFAULT_TOL:g}")
    return sel


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A target unitary, the map actually applied, and an optional subspace.

    Target and subspace pass the one target rule (``_checked_target``, shared with ``GateFamily``
    and :func:`kraus_avg_fidelity`), so the restricted comparison matrix is unambiguous.
    """

    target: np.ndarray
    actual: np.ndarray
    subspace: tuple[int, ...] | None = None

    def __post_init__(self):
        target = as_matrix(self.target)
        actual = as_matrix(self.actual)
        if target.shape != actual.shape:
            raise ConfigError(f"dimension mismatch: target {target.shape[0]} vs actual {actual.shape[0]}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "subspace", _checked_target(target, self.subspace))


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Operator-sum map rho -> sum_k G_k rho G_k^dagger.

    ``completeness_defect`` is the max-modulus entry of sum_k G_k^dagger G_k
    minus the identity; trace-decreasing maps (defect above 1e-10) are kept
    but flagged via :attr:`trace_preserving`.
    """

    operators: tuple[np.ndarray, ...]
    completeness_defect: float = field(init=False)
    # The operators as one (K, n, n) array, kept for kraus_avg_fidelity; it
    # takes no part in == or repr.
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    @_quiet_overflow
    def __post_init__(self):
        ops = tuple(as_matrix(g) for g in self.operators)
        if not ops:
            raise ValueError("a Kraus map needs at least one operator")
        dim = ops[0].shape[0]
        if any(g.shape[0] != dim for g in ops):
            raise ValueError("all Kraus operators must have the same dimension")
        object.__setattr__(self, "operators", ops)
        stack = np.array(ops)
        object.__setattr__(self, "stack", stack)
        total = (stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0)
        total.ravel()[:: dim + 1] -= 1.0
        object.__setattr__(self, "completeness_defect", float(np.abs(total).max()))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def trace_preserving(self) -> bool:
        return self.completeness_defect <= DEFAULT_TOL


def depolarizing_kraus(p: float) -> KrausMap:
    """Single-qubit depolarizing channel at error probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    ident = np.eye(2, dtype=np.complex128)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    w0, w = np.sqrt(1.0 - 0.75 * p), np.sqrt(0.25 * p)
    return KrausMap((w0 * ident, w * sx, w * sy, w * sz))


@_quiet_overflow
def avg_fidelity(m: np.ndarray) -> float:
    """Haar-average fidelity [Tr(m m^dag) + |Tr m|^2] / (n (n+1))."""
    return _mean(as_matrix(m))


def _mean(m: np.ndarray) -> float:
    """:func:`avg_fidelity` of a matrix :func:`as_matrix` already checked."""
    n = m.shape[0]
    # Tr(m m^dag) is the Frobenius inner product <m, m>; squares are written
    # as products, since a float ** raises OverflowError where * gives inf.
    t = abs(m.trace())
    return _real(float((np.vdot(m, m).real + t * t) / (n * (n + 1))), 0.0, "mean")


@_quiet_overflow
def fourth_moment_general(m: np.ndarray) -> float:
    """Haar average of |<psi|m|psi>|^4 for an arbitrary linear map.

    Every trace comes from ``mm = m m`` and ``mmd = m m^dag``, as a trace or
    a Frobenius inner product ``vdot(a, b) = Tr(a^dag b)``:
    Tr(m m m^dag m^dag) = ||mm||^2, Tr((m m^dag)^2) = ||mmd||^2,
    Tr(m m^dag m^dag) = vdot(mm, m) and Tr(m m^dag) = ||m||^2.
    """
    return _fourth(as_matrix(m))


def _fourth(m: np.ndarray) -> float:
    """:func:`fourth_moment_general` of a matrix :func:`as_matrix` already checked."""
    n = m.shape[0]
    mm = m @ m
    mmd = m @ adjoint(m)
    t_m = complex(m.trace())
    t_md = t_m.conjugate()
    t_mm = complex(mm.trace())
    t_mdmd = t_mm.conjugate()
    t_mmd = float(np.vdot(m, m).real)
    t_mmdmd = complex(np.vdot(mm, m))
    total = (
        4 * float(np.vdot(mm, mm).real)
        + 2 * float(np.vdot(mmd, mmd).real)
        + 4 * t_m * t_mmdmd
        + 4 * t_md * t_mmdmd.conjugate()
        + t_mm * t_mdmd
        + 2 * t_mmd * t_mmd
        + t_mm * t_md * t_md
        + t_m * t_m * t_mdmd
        + 4 * t_m * t_md * t_mmd
        + t_m * t_m * t_md * t_md
    )
    total = _real(total, 1e-10, "fourth-moment trace sum")
    return max(0.0, total / (n * (n + 1) * (n + 2) * (n + 3)))


@_quiet_overflow
def variance(m: np.ndarray) -> MomentReport:
    """Mean, second moment and variance sigma_f^2 = <f^2> - <f>^2."""
    return _report(as_matrix(m))


def _report(m: np.ndarray) -> MomentReport:
    """:func:`variance` of a matrix :func:`as_matrix` already checked: the one
    builder of a map's mean, second moment and variance."""
    return MomentReport(m.shape[0], _mean(m), _fourth(m))


def comparison_matrix(
    target: np.ndarray, actual: np.ndarray, subspace: tuple[int, ...] | None = None
) -> np.ndarray:
    """``target^dag @ actual``, or the product of their blocks on the rows and
    columns of the checked selector ``subspace``: the map whose fidelity moments are taken."""
    if subspace is None:
        return adjoint(target) @ actual
    block = np.ix_(subspace, subspace)
    return adjoint(target[block]) @ actual[block]


def gate_moments(g: GateSpec, with_variance: bool = True) -> MomentReport:
    """Moment report for a gate spec, over the full space or its subspace."""
    m = comparison_matrix(g.target, g.actual, g.subspace)
    if with_variance:
        return variance(m)
    return MomentReport(n_eff=m.shape[0], mean=avg_fidelity(m))


def conditional_fidelity(g: GateSpec) -> float:
    """Average fidelity conditioned on the state staying in the subspace.

    The accepted state is renormalized and the overlap is weighted by the
    acceptance probability ||P u P psi||^2. Over Haar states on the subspace
    that is the ratio of two means,

        F_c = avg_fidelity(m) / (||P u P||_F^2 / n_rel)

    with ``m`` the restricted :func:`comparison_matrix` and ``P u P`` the
    restricted actual map.
    """
    if g.subspace is None:
        raise ValueError("gate spec has no subspace selector")
    kept = g.actual[np.ix_(g.subspace, g.subspace)]  # GateSpec checked the selector
    acceptance_trace = _real(np.vdot(kept, kept), 1e-12, "acceptance trace")
    if acceptance_trace <= ACCEPTANCE_EPS:
        raise NoAcceptanceError("acceptance probability vanishes on the subspace")
    m = comparison_matrix(g.target, g.actual, g.subspace)
    return avg_fidelity(m) / (acceptance_trace / len(g.subspace))


@_quiet_overflow
def kraus_avg_fidelity(k: KrausMap, target: np.ndarray) -> float:
    """Average fidelity of an operator-sum map against a target unitary.

    [Tr(sum_k M_k^dag M_k) + sum_k |Tr M_k|^2] / (n (n+1)) with
    M_k = target^dag G_k.
    """
    target = as_matrix(target)
    if target.shape[0] != k.dim:
        raise ConfigError(f"dimension mismatch: target {target.shape[0]} vs Kraus {k.dim}")
    _checked_target(target, None)
    n = k.dim
    m_ks = adjoint(target) @ k.stack
    gram = _real(np.vdot(m_ks, m_ks), 1e-12, "Kraus Gram trace")
    if k.trace_preserving and not abs(gram - n) <= 1e-8:
        raise InvariantError(f"Gram trace {gram} of a trace-preserving map is not {n}")
    traces = np.trace(m_ks, axis1=1, axis2=2)
    cross = np.vdot(traces, traces).real
    return _real(float((gram + cross) / (n * (n + 1))), 0.0, "Kraus mean")
