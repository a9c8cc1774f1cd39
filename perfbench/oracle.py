"""High-precision reference values for the benchmark's output checks.

Everything here is evaluated in ``mpmath`` at 60 significant digits from the
exact binary values of the float inputs, and by a route independent of
gatefid's hand-expanded trace formulas: the Haar moment
E[prod_i <psi|A_i|psi>] over the unit sphere of C^n equals
sum_{sigma in S_t} tr_sigma(A_1, ..., A_t) / (n (n+1) ... (n+t-1)), where
tr_sigma is the product, over the cycles of sigma, of the trace of the
product of the A_i along the cycle.
"""

from __future__ import annotations

import itertools

import mpmath

DIGITS = 60


def to_mp(m) -> mpmath.matrix:
    rows, cols = m.shape
    out = mpmath.matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            v = complex(m[i, j])
            out[i, j] = mpmath.mpc(v.real, v.imag)
    return out


def dagger(a: mpmath.matrix) -> mpmath.matrix:
    return a.transpose_conj()


def trace(a: mpmath.matrix):
    return mpmath.fsum(a[i, i] for i in range(a.rows))


def _cycles(perm) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for i in range(len(perm)):
        if i in seen:
            continue
        cyc = []
        j = i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = perm[j]
        out.append(tuple(cyc))
    return out


def haar_moment(factors: list[mpmath.matrix]):
    """E[prod_i <psi|A_i|psi>] for Haar-uniform psi, by the permutation sum."""
    t = len(factors)
    n = factors[0].rows
    traces: dict[tuple[int, ...], object] = {}

    def cycle_trace(cyc: tuple[int, ...]):
        # Traces are cyclic: key each cycle by its smallest rotation of
        # factor identities so equal products are formed once.
        ids = [id(factors[i]) for i in cyc]
        k = min(range(len(cyc)), key=lambda r: ids[r:] + ids[:r])
        key = tuple(ids[k:] + ids[:k])
        if key not in traces:
            prod = factors[cyc[k]]
            for r in range(1, len(cyc)):
                prod = prod * factors[cyc[(k + r) % len(cyc)]]
            traces[key] = trace(prod)
        return traces[key]

    total = mpmath.mpc(0)
    for perm in itertools.permutations(range(t)):
        term = mpmath.mpc(1)
        for cyc in _cycles(perm):
            term *= cycle_trace(cyc)
        total += term
    denom = 1
    for r in range(t):
        denom *= n + r
    return total / denom


def fidelity_moments(m: mpmath.matrix) -> tuple[float, float, float]:
    """(mean, second moment, variance) of f = |<psi|m|psi>|^2."""
    md = dagger(m)
    mean = haar_moment([m, md]).real
    second = haar_moment([m, m, md, md]).real
    return float(mean), float(second), float(second - mean * mean)


def kraus_mean(target: mpmath.matrix, operators: list[mpmath.matrix]) -> float:
    """Average fidelity of rho -> sum_k G_k rho G_k^dag against a unitary target."""
    td = dagger(target)
    total = mpmath.mpf(0)
    for g in operators:
        mk = td * g
        total += haar_moment([mk, dagger(mk)]).real
    return float(total)


def conditional_mean(m_rel: mpmath.matrix, actual_rel: mpmath.matrix) -> float:
    """Acceptance-weighted fidelity for states drawn on the subspace.

    E[|<psi|m_rel|psi>|^2] / E[<psi|u_rel^dag u_rel|psi>] with psi Haar on
    the subspace, m_rel the restricted comparison matrix and u_rel the
    restricted applied map.
    """
    num = haar_moment([m_rel, dagger(m_rel)]).real
    den = haar_moment([dagger(actual_rel) * actual_rel]).real
    return float(num / den)


def precise():
    """Context manager setting the working precision for these routines."""
    return mpmath.workdps(DIGITS)
