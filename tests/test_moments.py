import sys

import numpy as np
import pytest

from gatefid import (
    GateSpec,
    KrausMap,
    MomentReport,
    NoAcceptanceError,
    adjoint,
    avg_fidelity,
    conditional_fidelity,
    depolarizing_kraus,
    eig2_normal,
    fourth_moment_general,
    fourth_moment_hermitian,
    gate_moments,
    kraus_avg_fidelity,
    mc_moment,
    monomial_integral_exact,
    variance,
)
from gatefid import linalg
from gatefid.moments import InvariantError
from gatefid.verify import _sa_decomposition
from conftest import (
    haar_states,
    random_antihermitian,
    random_hermitian,
    random_matrix,
    random_unitary,
)

L0 = 0.7 * np.exp(1j * np.pi / 8)
L1 = 0.8 * np.exp(1j * 4 * np.pi / 5)
REFERENCE = np.diag([L0, L1])
REFERENCE_MEAN = (0.49 + 0.64 + 0.56 * np.cos(4 * np.pi / 5 - np.pi / 8)) / 3


def leaky_unitary(alpha: complex) -> np.ndarray:
    """3-level unitary whose restriction to levels {0, 1} is diag(1, alpha)."""
    s = np.sqrt(max(0.0, 1.0 - abs(alpha) ** 2))
    u = np.eye(3, dtype=np.complex128)
    u[1, 1] = alpha
    u[1, 2] = s
    u[2, 1] = -s
    u[2, 2] = np.conjugate(alpha)
    return u


class TestAvgFidelity:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity(self, n):
        assert avg_fidelity(np.eye(n)) == pytest.approx(1.0, abs=1e-14)

    def test_reference_value(self):
        assert abs(avg_fidelity(REFERENCE) - REFERENCE_MEAN) <= 1e-12
        assert round(avg_fidelity(REFERENCE), 2) == 0.28

    def test_opposite_phases(self):
        assert avg_fidelity(np.diag([1.0, -1.0])) == pytest.approx(1 / 3, abs=1e-14)

    def test_spectrum_route_agrees(self):
        s = eig2_normal(REFERENCE)
        assert avg_fidelity(np.diag([s.lambda0, s.lambda1])) == pytest.approx(
            avg_fidelity(REFERENCE), abs=1e-14
        )

    def test_spectrum_worked_values(self):
        assert avg_fidelity(np.diag([1.0, 1.0])) == 1.0
        assert avg_fidelity(np.diag([0.0, 1.0])) == pytest.approx(1 / 3)

    def test_unitary_trace_form(self, rng):
        for n in (2, 3, 5):
            u = random_unitary(rng, n)
            want = (n + abs(np.trace(u)) ** 2) / (n * (n + 1))
            assert avg_fidelity(u) == pytest.approx(want, abs=1e-12)


class TestSubspaceAvgFidelity:
    def test_perfect_on_subspace(self):
        g = GateSpec(np.eye(3), leaky_unitary(1.0), subspace=(0, 1))
        assert gate_moments(g).mean == pytest.approx(1.0, abs=1e-14)

    def test_dark_only(self):
        g = GateSpec(np.eye(3), leaky_unitary(0.0), subspace=(0, 1))
        rep = gate_moments(g)
        assert rep.mean == pytest.approx(1 / 3, abs=1e-14)
        assert rep.n_eff == 2

    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.5, -2.0])
    def test_unit_modulus_phase(self, phi):
        g = GateSpec(np.eye(3), leaky_unitary(np.exp(1j * phi)), subspace=(0, 1))
        want = (2 + 2 + 2 * np.cos(phi)) / 6
        assert gate_moments(g).mean == pytest.approx(want, abs=1e-12)

    def test_matches_subspace_state_mc(self, rng):
        alpha = 0.6 * np.exp(0.4j)
        g = GateSpec(np.eye(3), leaky_unitary(alpha), subspace=(0, 1))
        est = mc_moment(np.diag([1.0, alpha]), 1, 100_000, seed=21)
        assert abs(gate_moments(g).mean - est.mean) <= 4 * est.std_error

    def test_non_block_diagonal_target_rejected(self, rng):
        target = random_unitary(rng, 3)
        with pytest.raises(ValueError, match="block-diagonal"):
            GateSpec(target, np.eye(3), subspace=(0, 1))



class TestConditionalFidelity:
    @pytest.mark.parametrize(
        "alpha,expected", [(1.0, 1.0), (0.0, 2 / 3), (0.5, 14 / 15)]
    )
    def test_worked_values(self, alpha, expected):
        g = GateSpec(np.eye(3), leaky_unitary(alpha), subspace=(0, 1))
        assert conditional_fidelity(g) == pytest.approx(expected, abs=1e-12)

    def test_equals_subspace_mean_without_leakage(self, rng):
        block = random_unitary(rng, 2)
        u = np.eye(3, dtype=complex)
        u[:2, :2] = block
        g = GateSpec(np.eye(3), u, subspace=(0, 1))
        assert conditional_fidelity(g) == pytest.approx(
            gate_moments(g).mean, abs=1e-12
        )

    def test_no_acceptance(self):
        # Unitary swapping the subspace with its complement: P U P = 0.
        u = np.zeros((4, 4), dtype=complex)
        u[0, 2] = u[1, 3] = u[2, 0] = u[3, 1] = 1.0
        g = GateSpec(np.eye(4), u, subspace=(0, 1))
        with pytest.raises(NoAcceptanceError):
            conditional_fidelity(g)

    def test_requires_subspace(self):
        g = GateSpec(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="no subspace"):
            conditional_fidelity(g)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_full_space_projector_formula(self, rng, n):
        # The full-space form, with P the 0/1 projector onto the subspace:
        # [Tr(u0^dag P u P u^dag P u0) + |Tr(u0^dag P u P)|^2]
        #   / ((n_rel + 1) Tr(u^dag P u P)).
        for size in range(1, n):
            for _ in range(3):
                sel = tuple(sorted(rng.choice(n, size, replace=False).tolist()))
                rest = [i for i in range(n) if i not in sel]
                target = np.zeros((n, n), dtype=complex)
                target[np.ix_(sel, sel)] = random_unitary(rng, size)
                target[np.ix_(rest, rest)] = random_unitary(rng, n - size)
                actual = random_matrix(rng, n)
                p = np.zeros((n, n))
                p[sel, sel] = 1.0
                u0d, pup = target.conj().T, p @ actual @ p
                num = np.trace(u0d @ pup @ actual.conj().T @ p @ target).real
                cross = abs(np.trace(u0d @ pup)) ** 2
                den = np.trace(actual.conj().T @ pup).real
                want = (num + cross) / ((size + 1) * den)
                got = conditional_fidelity(GateSpec(target, actual, subspace=sel))
                assert abs(got - want) <= 1e-14 * want


class TestKrausAvgFidelity:
    def test_identity_channel(self):
        assert kraus_avg_fidelity(KrausMap((np.eye(2),)), np.eye(2)) == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_depolarizing(self, p):
        got = kraus_avg_fidelity(depolarizing_kraus(p), np.eye(2))
        assert got == pytest.approx(1 - p / 2, abs=1e-12)

    def test_unitary_channel_against_itself(self, rng):
        u = random_unitary(rng, 3)
        assert kraus_avg_fidelity(KrausMap((u,)), u) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kraus_avg_fidelity(KrausMap((np.eye(2),)), np.eye(3))

    def test_operator_stack_kept_out_of_repr(self):
        k = depolarizing_kraus(0.3)
        assert k.stack.shape == (4, 2, 2)
        assert np.array_equal(k.stack, np.array(k.operators))
        assert "stack" not in repr(k) and repr(k).startswith("KrausMap(operators=")

    def test_non_unitary_target(self):
        with pytest.raises(ValueError, match="unitary"):
            kraus_avg_fidelity(KrausMap((np.eye(2),)), np.diag([1.0, 0.5]))

    def test_trace_decreasing_flagged_but_evaluated(self):
        k = KrausMap((np.diag([1.0, 0.5]),))
        assert not k.trace_preserving
        assert k.completeness_defect == pytest.approx(0.75)
        got = kraus_avg_fidelity(k, np.eye(2))
        assert got == pytest.approx((1.25 + 2.25) / 6, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_completeness_sum_reads_not_trace_preserving(self):
        # sum_k G_k^dag G_k = 1e400 overflows: the defect is inf, not a warning.
        k = KrausMap((np.diag([1e200, 1e200]), np.eye(2)))
        assert k.completeness_defect == np.inf
        assert not k.trace_preserving

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale",
        [
            pytest.param(1e200, id="gram"),  # the Gram trace overflows
            pytest.param(9e153, id="cross"),  # only sum_k |Tr M_k|^2 overflows
        ],
    )
    def test_overflowing_mean_raises(self, scale):
        k = KrausMap((np.diag([scale, scale]),))
        with pytest.raises(InvariantError, match="not a representable"):
            kraus_avg_fidelity(k, np.eye(2))

    def test_matches_state_sampled_channel_average(self, rng):
        k = depolarizing_kraus(0.3)
        u0 = random_unitary(rng, 2)
        states = haar_states(2, 100_000, seed=20260810)
        vals = np.zeros(len(states))
        for g in k.operators:
            mk = adjoint(u0) @ g
            vals += np.abs(np.einsum("bi,ij,bj->b", states.conj(), mk, states)) ** 2
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - kraus_avg_fidelity(k, u0)) <= 4 * se


class TestFourthMomentHermitian:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity(self, n):
        assert fourth_moment_hermitian(np.eye(n)) == pytest.approx(1.0, abs=1e-13)

    def test_projector(self):
        assert fourth_moment_hermitian(np.diag([1.0, 0.0])) == pytest.approx(0.2)

    def test_pauli_z_matches_monomial_expansion(self):
        # (|c0|^2 - |c1|^2)^4 expanded into the five quartic monomials.
        want = float(
            monomial_integral_exact((4, 0), 2)
            - 4 * monomial_integral_exact((3, 1), 2)
            + 6 * monomial_integral_exact((2, 2), 2)
            - 4 * monomial_integral_exact((1, 3), 2)
            + monomial_integral_exact((0, 4), 2)
        )
        got = fourth_moment_hermitian(np.diag([1.0, -1.0]))
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(0.2, abs=1e-14)

    def test_anti_hermitian_accepted(self, rng):
        a = random_antihermitian(rng, 3)
        assert fourth_moment_hermitian(a) == pytest.approx(
            fourth_moment_hermitian(1j * a), abs=1e-12
        )

    def test_rejects_general_matrix(self, rng):
        with pytest.raises(ValueError, match="neither Hermitian nor anti-Hermitian"):
            fourth_moment_hermitian(random_matrix(rng, 3))


class TestFourthMomentGeneral:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_identity(self, n):
        assert fourth_moment_general(np.eye(n)) == pytest.approx(1.0, abs=1e-13)

    def test_collapses_to_hermitian_form(self, rng):
        for n in (2, 3, 4, 5):
            for make in (random_hermitian, random_antihermitian):
                s = make(rng, n)
                a = fourth_moment_general(s)
                b = fourth_moment_hermitian(s)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_reference_against_mc(self):
        est = mc_moment(REFERENCE, 2, 200_000, seed=31)
        assert abs(fourth_moment_general(REFERENCE) - est.mean) <= 3 * est.std_error

    def test_oracle_equivalence_both_orders(self, rng):
        for n in (2, 3, 4, 5):
            for i in range(5):
                m = random_matrix(rng, n) / n
                est1 = mc_moment(m, 1, 20_000, seed=1000 + 10 * n + i)
                est2 = mc_moment(m, 2, 20_000, seed=2000 + 10 * n + i)
                assert abs(avg_fidelity(m) - est1.mean) <= 4 * est1.std_error
                assert abs(fourth_moment_general(m) - est2.mean) <= 4 * est2.std_error


class TestMomentProperties:
    def test_unitary_invariance(self, rng):
        for n in range(2, 7):
            m = random_matrix(rng, n)
            u = random_unitary(rng, n)
            conj = u @ m @ adjoint(u)
            assert abs(avg_fidelity(conj) - avg_fidelity(m)) <= 1e-10
            assert abs(
                fourth_moment_general(conj) - fourth_moment_general(m)
            ) <= 1e-10 * max(1.0, fourth_moment_general(m))

    def test_phase_invariance(self, rng):
        m = random_matrix(rng, 3)
        rot = np.exp(0.7j) * m
        assert abs(avg_fidelity(rot) - avg_fidelity(m)) <= 1e-12
        assert abs(fourth_moment_general(rot) - fourth_moment_general(m)) <= 1e-12

    def test_scaling_law(self, rng):
        m = random_matrix(rng, 3)
        c = 0.6 - 0.3j
        assert abs(avg_fidelity(c * m) - abs(c) ** 2 * avg_fidelity(m)) <= 1e-10
        assert abs(
            fourth_moment_general(c * m) - abs(c) ** 4 * fourth_moment_general(m)
        ) <= 1e-10

    def test_bounds_for_contractions(self, rng):
        for n in (2, 3, 4):
            m = random_matrix(rng, n)
            m = m / max(1.0, np.linalg.norm(m, 2))
            rep = variance(m)
            assert 0.0 <= rep.mean <= 1.0 + 1e-12
            assert 0.0 <= rep.second_moment <= rep.mean + 1e-12


class TestVariance:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_identity_variance_zero(self, n):
        assert variance(np.eye(n)).variance == 0.0

    def test_projector_worked_value(self):
        rep = variance(np.diag([1.0, 0.0]))
        assert rep.mean == pytest.approx(1 / 3, abs=1e-12)
        assert rep.second_moment == pytest.approx(1 / 5, abs=1e-12)
        assert rep.variance == pytest.approx(4 / 45, abs=1e-12)

    def test_reference_against_mc(self):
        rep = variance(REFERENCE)
        est1 = mc_moment(REFERENCE, 1, 200_000, seed=41)
        est2 = mc_moment(REFERENCE, 2, 200_000, seed=42)
        mc_var = est2.mean - est1.mean**2
        se = np.hypot(est2.std_error, 2 * est1.mean * est1.std_error)
        assert abs(rep.variance - mc_var) <= 3 * se

    def test_gate_moments_full_space(self, rng):
        u = random_unitary(rng, 3)
        rep = gate_moments(GateSpec(u, u))
        assert rep.mean == pytest.approx(1.0, abs=1e-12)
        assert rep.variance <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "fn,scale",
        [(variance, 1e150), (fourth_moment_hermitian, 1e80), (avg_fidelity, 9e153)],
    )
    def test_unrepresentable_moment_raises(self, fn, scale):
        # Finite entries whose moment overflows a float: a typed error, not
        # an AssertionError, an OverflowError or an inf.
        with pytest.raises(InvariantError, match="not a representable"):
            fn(np.diag([scale, scale]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fn,scale",
        [
            pytest.param(fourth_moment_general, 1e150, id="fourth_moment_general"),
            pytest.param(fourth_moment_hermitian, 1e150, id="fourth_moment_hermitian"),
            pytest.param(avg_fidelity, 1e200, id="avg_fidelity"),
        ],
    )
    def test_overflow_raises_without_warnings(self, fn, scale):
        # numpy's overflow warnings would turn into errors here and pre-empt
        # the InvariantError.
        with pytest.raises(InvariantError):
            fn(np.diag([scale, scale]))

    @pytest.mark.parametrize("how", ["variance", "gate_moments"])
    def test_validates_matrix_once(self, rng, monkeypatch, how):
        # variance checks its matrix once and hands it to both kernels;
        # gate_moments' comparison matrix comes from arrays GateSpec checked.
        spec = GateSpec(random_unitary(rng, 3), random_matrix(rng, 3, 0.5))
        m = spec.target.conj().T @ spec.actual
        calls = []
        checked = linalg.as_matrix

        def counting(entries):
            calls.append(1)
            return checked(entries)

        for name, module in list(sys.modules.items()):
            if name.startswith("gatefid") and getattr(module, "as_matrix", None) is checked:
                monkeypatch.setattr(module, "as_matrix", counting)
        rep = variance(m) if how == "variance" else gate_moments(spec)
        assert len(calls) == 1
        monkeypatch.undo()
        assert rep.mean == avg_fidelity(m)
        assert rep.second_moment == fourth_moment_general(m)

    def test_report_clamps_rounding_relative_to_second_moment(self):
        # f = 2.5e7 on every state: second - mean^2 is a few ulps of 6.25e14.
        rep = MomentReport(n_eff=1, mean=2.5e7, second_moment=6.25e14 - 0.125)
        assert rep.variance == 0.0
        assert MomentReport(n_eff=2, mean=0.5, second_moment=0.25 - 1e-11).variance == 0.0

    def test_report_rejects_second_moment_below_mean_squared(self):
        with pytest.raises(InvariantError, match="negative beyond rounding"):
            MomentReport(n_eff=2, mean=0.5, second_moment=0.25 - 1e-9)


class TestSaDecomposition:
    # The Monte-Carlo split that verify's sa_decomposition check runs; its
    # means are (total, Hermitian, anti-Hermitian, cross).
    def test_hermitian_input_kills_cross_terms(self, rng):
        (total, herm, anti, cross), _ = _sa_decomposition(random_hermitian(rng, 3), 2000, seed=5)
        assert anti == 0.0
        assert cross == 0.0
        assert total == pytest.approx(herm, rel=1e-12)

    def test_anti_hermitian_input(self, rng):
        (total, herm, anti, _), _ = _sa_decomposition(random_antihermitian(rng, 3), 2000, seed=6)
        assert herm == 0.0
        assert total == pytest.approx(anti, rel=1e-12)

    def test_pointwise_identity_random_matrix(self, rng):
        m = random_matrix(rng, 3)
        (total, herm, anti, cross), gap = _sa_decomposition(m, 50_000, seed=7)
        assert gap <= 1e-12 * max(1.0, total)
        assert total == pytest.approx(herm + anti + 2 * cross, rel=1e-12)
