import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatefid import (
    NotNormalError,
    QubitSpectrum,
    adjoint,
    as_matrix,
    classify,
    eig2_normal,
    restrict,
)
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


class TestClassify:
    def test_identity(self):
        flags = classify(np.eye(2))
        assert flags.hermitian and flags.normal and flags.unitary
        assert not flags.anti_hermitian

    def test_positive_diagonal(self):
        flags = classify(np.diag([1.0, 0.5]))
        assert flags.hermitian and flags.normal
        assert not flags.unitary

    def test_nilpotent_not_normal(self):
        assert not classify(np.array([[0, 1], [0, 0]], dtype=complex)).normal

    def test_anti_hermitian(self):
        assert classify(np.array([[1j, 2], [-2, -3j]])).anti_hermitian

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            classify(np.eye(2), tol=0.0)


class TestRestrict:
    def test_leaky_block(self):
        alpha, gamma, beta = 0.3 + 0.1j, 0.2j, -0.5
        u = np.array([[1, 0, 0], [0, alpha, gamma], [0, np.conj(gamma), beta]])
        got = restrict(u, (0, 1))
        assert np.array_equal(got, np.array([[1, 0], [0, alpha]]))

    def test_full_selection(self, rng):
        m = random_matrix(rng, 3)
        assert np.array_equal(restrict(m, (0, 1, 2)), m)

    def test_single_index(self):
        got = restrict(np.diag([1.0, 2.0, 3.0]), (2,))
        assert got.shape == (1, 1) and got[0, 0] == 3.0

    @pytest.mark.parametrize("sel", [(), (0, 0), (1, 0), (0, 3)])
    def test_invalid_selector(self, sel):
        with pytest.raises(ValueError):
            restrict(np.eye(3), sel)

    def test_projector(self, rng):
        # restrict is the nonzero block of the projector sandwich P m P.
        m = random_matrix(rng, 4)
        sel = (0, 2, 3)
        p = np.diag([1.0, 0.0, 1.0, 1.0])
        sandwich = p @ m @ p
        assert np.array_equal(restrict(m, sel), sandwich[np.ix_(sel, sel)])
        assert not sandwich[1].any() and not sandwich[:, 1].any()


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
        with pytest.raises(NotNormalError):
            eig2_normal(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            eig2_normal(np.eye(3))

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_entries_raise_without_warnings(self):
        # The normality test of diag(1e155, 1e155 i) overflows; the map is
        # normal, so the error must name the overflow, not non-normality.
        with pytest.raises(ValueError, match="not representable") as err:
            eig2_normal(np.diag([1e155, 1e155j]))
        assert not isinstance(err.value, NotNormalError)
        s = eig2_normal(np.diag([1e153, 1e153j]))
        assert (s.lambda0, s.lambda1) == (1e153, 1e153j)


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
