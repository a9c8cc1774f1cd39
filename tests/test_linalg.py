import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatefid import (
    QubitSpectrum,
    eig2_normal,
    normal_pdf,
)
from gatefid.linalg import ConfigError, adjoint, as_matrix, check_selector
from gatefid.moments import InvariantError, comparison_matrix
from conftest import random_matrix, random_unitary

L0 = 0.7 * np.exp(1j * np.pi / 8)
L1 = 0.8 * np.exp(1j * 4 * np.pi / 5)


def complex_matrices(max_dim=6):
    def build(draw):
        n = draw(st.integers(2, max_dim))
        vals = draw(
            st.lists(
                st.floats(-1, 1, allow_nan=False),
                min_size=2 * n * n,
                max_size=2 * n * n,
            )
        )
        arr = np.array(vals).reshape(2, n, n)
        return arr[0] + 1j * arr[1]

    return st.composite(build)()


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1j * np.inf, 0], [0, 1]]))


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_diagonal_conjugation(self):
        m = np.diag([1j, 0.0])
        assert np.array_equal(adjoint(m), np.diag([-1j, 0.0]))

    def test_offdiagonal_moves_and_conjugates(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1 + 2j
        r = adjoint(m)
        assert r[1, 0] == 1 - 2j
        assert r[0, 1] == 0

    @given(complex_matrices())
    def test_involution(self, m):
        assert np.array_equal(adjoint(adjoint(m)), m)


class TestRestrict:
    # Restriction to a subspace: check_selector validates the basis indices,
    # and comparison_matrix with the identity as target is the kept block.
    def test_leaky_block(self):
        alpha, gamma, beta = 0.3 + 0.1j, 0.2j, -0.5
        u = np.array([[1, 0, 0], [0, alpha, gamma], [0, np.conj(gamma), beta]])
        got = comparison_matrix(np.eye(3), u, (0, 1))
        assert np.array_equal(got, np.array([[1, 0], [0, alpha]]))

    def test_full_selection(self, rng):
        m = random_matrix(rng, 3)
        assert np.array_equal(comparison_matrix(np.eye(3), m, (0, 1, 2)), m)

    def test_single_index(self):
        got = comparison_matrix(np.eye(3), np.diag([1.0, 2.0, 3.0]), (2,))
        assert got.shape == (1, 1) and got[0, 0] == 3.0

    @pytest.mark.parametrize("sel", [(), (0, 0), (1, 0), (0, 3)])
    def test_invalid_selector(self, sel):
        with pytest.raises(ValueError):
            check_selector(sel, 3)

    @pytest.mark.parametrize("sel", [(0.9, 1.9), (0, 1.5), (np.float64(0.5),)])
    def test_non_integral_selector(self, sel):
        with pytest.raises(ConfigError, match="integers"):
            check_selector(sel, 3)

    def test_integral_selector_types(self):
        assert check_selector((np.int64(0), np.uint8(2)), 3) == (0, 2)
        assert check_selector([1, 2], 3) == (1, 2)

    def test_projector(self, rng):
        # The kept block is the nonzero block of the projector sandwich P m P.
        m = random_matrix(rng, 4)
        sel = (0, 2, 3)
        p = np.diag([1.0, 0.0, 1.0, 1.0])
        sandwich = p @ m @ p
        got = comparison_matrix(np.eye(4), m, sel)
        assert np.array_equal(got, sandwich[np.ix_(sel, sel)])
        assert not sandwich[1].any() and not sandwich[:, 1].any()


# Not normal, though an absolute 1e-10 test of [m, m^dag] passes the first
# two: a small upper-triangular map and a visible ellipse near I.
NON_NORMAL = {
    "small_triangular": 1e-6 * np.array([[1, 3], [0, -1]], dtype=complex),
    "ellipse": np.array([[1, 5e-6], [0, 1 + 1e-6]], dtype=complex),
    "small_nilpotent": 1e-6 * np.array([[0, 1], [0, 0]], dtype=complex),
}


def rotated_normal(l0, l1, theta, phi):
    """u diag(l0, l1) u^dag for the unitary u of angles theta and phi."""
    c, s = np.cos(theta), np.sin(theta) * np.exp(1j * phi)
    u = np.array([[c, -np.conj(s)], [s, c]])
    return u @ np.diag([l0, l1]) @ adjoint(u)


def normal_or_zero(*values):
    """Whether every nonzero real or imaginary part of ``values`` is a normal float."""
    tiny = np.finfo(float).tiny
    return all(x == 0 or abs(x) >= tiny for z in values for x in (z.real, z.imag))


def _eigvec(m, lam):
    # Null vector of m - lam*I for a 2x2 matrix, via the larger row.
    a, b = m[0, 0] - lam, m[0, 1]
    c, d = m[1, 0], m[1, 1] - lam
    v1 = np.array([b, -a])
    v2 = np.array([d, -c])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.array([1.0, 0.0])


class TestEig2Normal:
    def test_reference_diagonal(self):
        s = eig2_normal(np.diag([L0, L1]))
        assert s.lambda0 == pytest.approx(L0, abs=1e-14)
        assert s.lambda1 == pytest.approx(L1, abs=1e-14)

    def test_degenerate_identity(self):
        s = eig2_normal(np.eye(2))
        assert s.lambda0 == s.lambda1 == 1.0

    def test_pauli_x_tie_break(self):
        s = eig2_normal(np.array([[0, 1], [1, 0]], dtype=complex))
        assert s.lambda0 == 1.0 and s.lambda1 == -1.0

    def test_recovers_conjugated_spectrum(self, rng):
        for _ in range(20):
            lams = rng.uniform(-1, 1, 4)
            l0, l1 = complex(lams[0], lams[1]), complex(lams[2], lams[3])
            u = random_unitary(rng, 2)
            m = u @ np.diag([l0, l1]) @ adjoint(u)
            s = eig2_normal(m)
            got = sorted([s.lambda0, s.lambda1], key=lambda z: (z.real, z.imag))
            want = sorted([l0, l1], key=lambda z: (z.real, z.imag))
            assert np.allclose(got, want, atol=1e-10)

    def test_residual(self, rng):
        for _ in range(20):
            u = random_unitary(rng, 2)
            m = u @ np.diag(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) @ adjoint(u)
            s = eig2_normal(m)
            for lam in (s.lambda0, s.lambda1):
                v = _eigvec(m, lam)
                assert np.linalg.norm(m @ v - lam * v) <= 1e-10

    def test_trace_equals_eigenvalue_sum(self, rng):
        for _ in range(20):
            u = random_unitary(rng, 2)
            m = u @ np.diag(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) @ adjoint(u)
            s = eig2_normal(m)
            assert np.trace(m) == pytest.approx(s.lambda0 + s.lambda1, abs=1e-10)

    def test_rejects_non_normal(self):
        with pytest.raises(ConfigError):
            eig2_normal(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            eig2_normal(np.eye(3))

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_entries_raise_without_warnings(self):
        # The Bloch form runs on m / 2^e, so diag(1e155, 1e155 i) has a
        # spectrum; its law, with |l|^2 near 1e310, names the overflow.
        s = eig2_normal(np.diag([1e155, 1e155j]))
        assert (s.lambda0, s.lambda1) == (1e155, 1e155j)
        with pytest.raises(InvariantError, match="not representable"):
            normal_pdf(s)
        s = eig2_normal(np.diag([1e153, 1e153j]))
        assert (s.lambda0, s.lambda1) == (1e153, 1e153j)
        # Eigenvalue 2e308: the spectrum itself overflows.
        with pytest.raises(ValueError, match="not finite") as err:
            eig2_normal(np.full((2, 2), 1e308))
        assert not isinstance(err.value, ConfigError)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=4, max_size=4),
        st.floats(0, np.pi),
        st.floats(-np.pi, np.pi),
        st.integers(-500, 500),
    )
    def test_power_of_two_scale_is_exact(self, parts, theta, phi, k):
        # Exact where every nonzero part of both spectra is a normal float: a
        # part that rounds into the subnormal range may move by one subnormal
        # ulp (see the test below).
        m = rotated_normal(complex(*parts[:2]), complex(*parts[2:]), theta, phi)
        scale = 2.0**k
        assume(np.abs(m).max() >= 2.0**-400 and np.array_equal(m * scale / scale, m))
        s = eig2_normal(m)
        want = (s.lambda0 * scale, s.lambda1 * scale)
        assume(all(z / scale == w for z, w in zip(want, (s.lambda0, s.lambda1))))
        got = eig2_normal(m * scale)
        assume(normal_or_zero(s.lambda0, s.lambda1, got.lambda0, got.lambda1))
        assert (got.lambda0, got.lambda1) == want

    @pytest.mark.parametrize(
        "parts,theta,phi",
        [([0, 0, 0.5, 1.11e-308], 1.0, 0.0), ([0, 0, 0, 0.398], 1.0, 2.2e-309)],
    )
    def test_power_of_two_scale_within_a_subnormal_ulp(self, parts, theta, phi):
        # Eigenvalue parts that round into the subnormal range: 2 eig2_normal(m)
        # and eig2_normal(2 m) differ there, by at most one subnormal ulp.
        m = rotated_normal(complex(*parts[:2]), complex(*parts[2:]), theta, phi)
        s, got = eig2_normal(m), eig2_normal(2 * m)
        pairs = [(2 * a, b) for a, b in zip((s.lambda0, s.lambda1), (got.lambda0, got.lambda1))]
        assert (got.lambda0, got.lambda1) != (2 * s.lambda0, 2 * s.lambda1)
        for want, z in pairs:
            assert abs(want.real - z.real) <= math.ulp(0.0)
            assert abs(want.imag - z.imag) <= math.ulp(0.0)

    @pytest.mark.parametrize("k", [-40, -20, 0, 20, 40])
    @pytest.mark.parametrize("name", sorted(NON_NORMAL))
    def test_rejects_non_normal_at_every_scale(self, name, k):
        with pytest.raises(ConfigError):
            eig2_normal(NON_NORMAL[name] * 2.0**k)

    @pytest.mark.parametrize("gap,bound", [(1e-3, 1e-9), (1e-6, 1e-7)])
    def test_support_accuracy_near_degenerate(self, gap, bound):
        # Rotated normal maps with |l0 - l1| = gap |l0|: the support edges
        # against a 50-digit eigen-solve of the same float matrix, in widths.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            l0 = complex(*rng.uniform(-1, 1, 2))
            l1 = l0 + gap * abs(l0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            u = random_unitary(rng, 2)
            m = u @ np.diag([l0, l1]) @ adjoint(u)
            with mpmath.workdps(50):
                a, b, c, d = (mpmath.mpc(z.real, z.imag) for z in m.ravel().tolist())
                half = (a + d) / 2
                r = mpmath.sqrt(half * half - (a * d - b * c))
                e0, diff = half - r, 2 * r
                t = min(max(-mpmath.re(e0 * mpmath.conj(diff)) / abs(diff) ** 2, 0), 1)
                lo, hi = abs(e0 + t * diff) ** 2, max(abs(e0), abs(e0 + diff)) ** 2
                got = normal_pdf(eig2_normal(m)).support()
                err = max(abs(got[0] - lo), abs(got[1] - hi)) / (hi - lo)
            worst = max(worst, float(err))
        assert worst <= bound


class TestQubitSpectrum:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            QubitSpectrum(1.0, 0.5)

    def test_ordered_constructor_swaps(self):
        s = QubitSpectrum.ordered(1.0, 0.5)
        assert s.lambda0 == 0.5 and s.lambda1 == 1.0

    def test_tie_break_by_argument(self):
        s = QubitSpectrum.ordered(-1.0, 1.0)
        assert s.lambda0 == 1.0 and s.lambda1 == -1.0
