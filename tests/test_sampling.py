from fractions import Fraction

import numpy as np
import pytest

from gatefid import (
    mc_histogram,
    mc_moment,
    monomial_integral,
    monomial_integral_exact,
    sample_states,
)
from gatefid.sampling import (
    _BATCH,
    _fidelities,
    _gaussian_rows,
    _histogram,
    expectation,
    sample_state,
    state_batches,
)
from conftest import random_hermitian, random_matrix, random_unitary

L0 = 0.7 * np.exp(1j * np.pi / 8)
L1 = 0.8 * np.exp(1j * 4 * np.pi / 5)
REFERENCE = np.diag([L0, L1])


class TestSampleState:
    def test_dim_one_is_pure_phase(self, rng):
        for _ in range(10):
            v = sample_state(1, rng)
            assert abs(abs(v[0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_unit_norm(self, rng, n):
        states = sample_states(n, 1000, rng)
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_amplitude_square_mean_is_half(self, rng):
        states = sample_states(2, 1_000_000, rng)
        vals = np.abs(states[:, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_fourth_power_matches_monomial_oracle(self, rng):
        # oracle: monomial_integral((2,0,0,0), 4) = 2/(4*5) = 0.1
        expected = monomial_integral((2, 0, 0, 0), 4)
        assert expected == pytest.approx(0.1)
        states = sample_states(4, 1_000_000, rng)
        vals = np.abs(states[:, 0]) ** 4
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - expected) <= 3 * se

    def test_haar_invariance_under_fixed_unitary(self, rng):
        u = random_unitary(rng, 3)
        plain = sample_states(3, 200_000, np.random.default_rng(1))
        rotated = sample_states(3, 200_000, np.random.default_rng(2)) @ u.T
        f_plain = np.abs(plain[:, 0]) ** 2 * np.abs(plain[:, 1]) ** 2
        f_rot = np.abs(rotated[:, 0]) ** 2 * np.abs(rotated[:, 1]) ** 2
        se = np.hypot(
            f_plain.std(ddof=1) / np.sqrt(len(f_plain)),
            f_rot.std(ddof=1) / np.sqrt(len(f_rot)),
        )
        assert abs(f_plain.mean() - f_rot.mean()) <= 4 * se


def reference_states(n, count, rng):
    """Rows (z_0 + i z_1, z_2 + i z_3, ...) / norm from one normal draw."""
    z = rng.standard_normal((count, 2 * n))
    v = z[:, 0::2] + 1j * z[:, 1::2]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestSeedToStateMap:
    # Pins the map from a seed to its states bit for bit: a faster kernel
    # must not change which states a seed draws.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 42])
    def test_sample_states_bitwise(self, n, seed):
        got = sample_states(n, 4096, np.random.default_rng(seed))
        want = reference_states(n, 4096, np.random.default_rng(seed))
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_state_batches_bitwise(self, workers):
        n, samples, seed = 2, 2 * _BATCH + 5, 7  # several batches per worker
        got = np.concatenate(
            [
                v / np.linalg.norm(v, axis=1, keepdims=True)
                for v, _ in state_batches(n, samples, seed, workers)
            ]
        )
        base, extra = divmod(samples, workers)
        children = np.random.SeedSequence(seed).spawn(workers)
        want = np.concatenate(
            [
                reference_states(n, base + (w < extra), np.random.default_rng(child))
                for w, child in enumerate(children)
            ]
        )
        assert np.array_equal(bits(got), bits(want))


class ZeroRowRng:
    """A generator whose first batch draw has an all-zero row ``row``."""

    def __init__(self, rng, row):
        self.rng, self.row = rng, row

    def standard_normal(self, size):
        z = self.rng.standard_normal(size)
        if self.row is not None and np.ndim(z) == 2:
            z[self.row] = 0.0
            self.row = None
        return z


class TestFidelityKernel:
    # The kernel takes f from the unnormalized rows that sample_states
    # normalizes; it must give the same f up to rounding.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_normalized_states(self, n, workers):
        m = random_matrix(np.random.default_rng(n), n, scale=2.0)
        samples, seed = _BATCH + 7, 3
        got = _fidelities(m, samples, seed, workers)
        base, extra = divmod(samples, workers)
        children = np.random.SeedSequence(seed).spawn(workers)
        states = np.concatenate(
            [
                sample_states(n, base + (w < extra), np.random.default_rng(child))
                for w, child in enumerate(children)
            ]
        )
        want = np.abs(expectation(states, m)) ** 2
        assert np.abs(got - want).max() <= 1e-14 * want.max()

    @pytest.mark.parametrize("n", [1, 3])
    def test_tiny_norm_row_falls_back_like_sample_states(self, monkeypatch, n):
        row, count, seed = 5, 1000, 11
        m = random_matrix(np.random.default_rng(0), n)
        child = np.random.SeedSequence(seed).spawn(1)[0]
        states = sample_states(n, count, ZeroRowRng(np.random.default_rng(child), row))
        # The replacement is the next sample_state draw after the batch.
        rng = np.random.default_rng(child)
        rng.standard_normal((count, 2 * n))
        replacement = sample_state(n, rng)
        assert np.array_equal(bits(states[row]), bits(replacement))
        v, r2 = _gaussian_rows(n, count, ZeroRowRng(np.random.default_rng(child), row))
        assert np.array_equal(bits(v[row]), bits(replacement)) and r2[row] == 1.0

        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda s: ZeroRowRng(default_rng(s), row)
        )
        f = _fidelities(m, count, seed, 1)
        monkeypatch.undo()
        want = np.abs(expectation(states, m)) ** 2
        assert abs(f[row] - want[row]) <= 1e-14 * want.max()
        assert np.abs(f - want).max() <= 1e-14 * want.max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflow_raises_without_warnings(self, n):
        # pytest turns RuntimeWarnings into errors, so a warning would fail
        # this test instead of raising the ValueError below.
        with pytest.raises(ValueError, match="overflows"):
            mc_moment(1e200 * np.eye(n), 1, 1000, seed=0)


class TestExpectation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["general", "hermitian"])
    def test_matches_double_loop(self, rng, n, kind):
        a = random_matrix(rng, n, scale=3.0) if kind == "general" else random_hermitian(rng, n)
        states = sample_states(n, 200, rng)
        want = np.zeros(len(states), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                want += states[:, i].conj() * a[i, j] * states[:, j]
        got = expectation(states, a)
        assert got.shape == (len(states),)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(a).max()

    def test_empty_batch(self):
        assert expectation(np.empty((0, 3), dtype=np.complex128), np.eye(3)).shape == (0,)


class TestMonomialIntegral:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_single_square_is_one_over_n(self, n):
        k = (1,) + (0,) * (n - 1)
        assert monomial_integral_exact(k, n) == Fraction(1, n)

    @pytest.mark.parametrize(
        "pattern,weight",
        [((4,), 24), ((2, 2), 4), ((3, 1), 6), ((2, 1, 1), 2), ((1, 1, 1, 1), 1)],
    )
    @pytest.mark.parametrize("n", [4, 6])
    def test_quartic_patterns(self, pattern, weight, n):
        k = pattern + (0,) * (n - len(pattern))
        denom = n * (n + 1) * (n + 2) * (n + 3)
        assert monomial_integral_exact(k, n) == Fraction(weight, denom)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_norm_expansion_sums_to_one(self, n):
        total = Fraction(0)
        for i in range(n):
            k = [0] * n
            k[i] = 2
            total += monomial_integral_exact(k, n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    k = [0] * n
                    k[i] = k[j] = 1
                    total += monomial_integral_exact(k, n)
        assert total == 1

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            monomial_integral((1, 0), 3)

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            monomial_integral((-1, 1), 2)

    def test_all_zero(self):
        with pytest.raises(ValueError):
            monomial_integral((0, 0), 2)

    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_monte_carlo(self, n):
        rng = np.random.default_rng(77)
        states = sample_states(n, 100_000, rng)
        mags = np.abs(states) ** 2
        for pattern in [(4,), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)]:
            k = pattern + (0,) * (n - len(pattern))
            vals = np.prod(mags ** np.array(k), axis=1)
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - monomial_integral(k, n)) <= 4 * se


class TestMcMoment:
    @pytest.mark.parametrize("order", [1, 2])
    def test_identity(self, order):
        est = mc_moment(np.eye(3), order, 1000, seed=0)
        assert abs(est.mean - 1.0) <= 1e-12
        assert est.std_error <= 1e-12

    def test_reference_first_moment(self):
        est = mc_moment(REFERENCE, 1, 200_000, seed=11)
        closed = 0.27913360125302283
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_projector_second_moment(self):
        # Equals the monomial (4,0) integral at n=2: 24/120 = 0.2.
        est = mc_moment(np.diag([1.0, 0.0]), 2, 200_000, seed=12)
        assert abs(est.mean - 0.2) <= 3 * est.std_error

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            mc_moment(np.eye(2), 1, 50, seed=0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            mc_moment(np.eye(2), 3, 1000, seed=0)

    def test_deterministic_per_seed_and_workers(self):
        a = mc_moment(REFERENCE, 1, 30_000, seed=9, workers=3)
        b = mc_moment(REFERENCE, 1, 30_000, seed=9, workers=3)
        assert a == b

    def test_seed_recorded(self):
        assert mc_moment(np.eye(2), 1, 1000, seed=31).seed == 31

    @pytest.mark.parametrize("delta", [1e-4, 1e-6])
    def test_std_error_near_identity(self, delta):
        # m = diag(1, e^{i delta}) gives f = 1 - 2 p (1 - p) (1 - cos delta)
        # with p = |c_0|^2 uniform on [0, 1], so sigma_f = 2 (1 - cos delta) /
        # sqrt(180); 1 - cos delta is taken as 2 sin^2(delta / 2) to keep digits.
        samples = 100_000
        one_minus_cos = 2 * np.sin(delta / 2) ** 2
        want = 2 * one_minus_cos / np.sqrt(180) / np.sqrt(samples)
        est = mc_moment(np.diag([1, np.exp(1j * delta)]), 1, samples, seed=13)
        assert abs(est.std_error - want) <= 0.05 * want


class TestMcHistogram:
    def test_identity_mass_in_top_bin(self):
        h = mc_histogram(np.eye(2), 10, 1000, seed=0, value_range=(0.0, 1.0))
        assert h.counts[-1] == 1000
        assert h.counts[:-1].sum() == 0

    def test_deterministic(self):
        a = mc_histogram(REFERENCE, 20, 5000, seed=4, workers=2)
        b = mc_histogram(REFERENCE, 20, 5000, seed=4, workers=2)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.edges, b.edges)

    def test_densities_normalized(self):
        h = mc_histogram(REFERENCE, 25, 20_000, seed=5)
        total = (h.densities * h.widths).sum()
        assert total == pytest.approx(h.counts.sum() / h.samples)

    def test_edge_clamp_spans_batches(self):
        # The clamp runs slice by slice; values near both edges in every
        # slice must be clamped exactly as a whole-array pass would.
        rng = np.random.default_rng(8)
        f = rng.uniform(0.2, 0.6, 2 * _BATCH + 3)
        f[rng.integers(0, f.size, 200)] = 0.2 - 1e-12
        f[rng.integers(0, f.size, 200)] = 0.6 + 1e-12
        f[:3] = [0.2 - 1e-3, 0.6 + 1e-3, 0.6 - 1e-15]
        want = f.copy()
        for edge in (0.2, 0.6):
            want[np.abs(want - edge) <= 1e-9] = edge
        h = _histogram(f, 20, seed=0, value_range=(0.2, 0.6))
        assert np.array_equal(f, want)
        assert h.counts.sum() == f.size - 2
        assert np.array_equal(h.counts, np.histogram(want, 20, (0.2, 0.6))[0])

    def test_validates_bins(self):
        with pytest.raises(ValueError):
            mc_histogram(np.eye(2), 1, 100, seed=0)
        with pytest.raises(ValueError):
            mc_histogram(np.eye(2), 64, 10, seed=0)
