import tracemalloc
from fractions import Fraction
from math import ldexp

import numpy as np
import pytest

from gatefid import (
    eig2_normal,
    mc_moment,
    mc_sample,
    monomial_integral_exact,
    normal_pdf,
)
from gatefid.linalg import ConfigError
from gatefid.sampling import (
    _BATCH,
    _Tally,
    _fidelity_batches,
    _gaussian_rows,
    _outer_range,
    expectation,
    state_batches,
)
from conftest import (
    haar_states,
    random_hermitian,
    random_matrix,
    random_unitary,
    reference_states,
)

L0 = 0.7 * np.exp(1j * np.pi / 8)
L1 = 0.8 * np.exp(1j * 4 * np.pi / 5)
REFERENCE = np.diag([L0, L1])


def fidelities(m, samples, seed):
    """Every sampled f of one stream, concatenated in draw order (each batch
    is copied out before the next one overwrites it)."""
    return np.concatenate([f.copy() for f in _fidelity_batches(m, samples, seed)])


def child_rng(seed):
    """The generator the stream of ``seed`` draws from."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def tally_histogram(batches, bins, value_range):
    batches = list(batches)
    tally = _Tally(bins, value_range)
    for x in batches:
        tally.add(x)
    return tally.histogram(seed=0)


class TestSampleState:
    # The stream's rows, normalized, are Haar-uniform states.
    def test_dim_one_is_pure_phase(self):
        states = haar_states(1, 10, seed=1)
        assert np.abs(np.abs(states[:, 0]) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_unit_norm(self, n):
        states = haar_states(n, 1000, seed=n)
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_amplitude_square_mean_is_half(self):
        states = haar_states(2, 1_000_000, seed=2)
        vals = np.abs(states[:, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_fourth_power_matches_monomial_oracle(self):
        # oracle: monomial_integral_exact((2,0,0,0), 4) = 2/(4*5) = 0.1
        expected = float(monomial_integral_exact((2, 0, 0, 0), 4))
        assert expected == pytest.approx(0.1)
        states = haar_states(4, 1_000_000, seed=4)
        vals = np.abs(states[:, 0]) ** 4
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - expected) <= 3 * se

    def test_haar_invariance_under_fixed_unitary(self, rng):
        u = random_unitary(rng, 3)
        plain = haar_states(3, 200_000, seed=1)
        rotated = haar_states(3, 200_000, seed=2) @ u.T
        f_plain = np.abs(plain[:, 0]) ** 2 * np.abs(plain[:, 1]) ** 2
        f_rot = np.abs(rotated[:, 0]) ** 2 * np.abs(rotated[:, 1]) ** 2
        se = np.hypot(
            f_plain.std(ddof=1) / np.sqrt(len(f_plain)),
            f_rot.std(ddof=1) / np.sqrt(len(f_rot)),
        )
        assert abs(f_plain.mean() - f_rot.mean()) <= 4 * se


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestSeedToStateMap:
    # Pins the map from a seed to its states bit for bit: a faster kernel
    # must not change which states a seed draws. The states are the rows
    # of one normal draw from the seed's first SeedSequence child.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 42])
    def test_sample_states_bitwise(self, n, seed):
        # One batch in every dimension.
        ((v, _),) = state_batches(n, 4096, seed)
        got = v / np.linalg.norm(v, axis=1, keepdims=True)
        want = reference_states(n, 4096, child_rng(seed))
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("full_batches", [1, 3])
    def test_state_batches_bitwise(self, full_batches):
        # The stream continues across batch cuts as one draw.
        n, samples, seed = 2, full_batches * _BATCH + 5, 7
        batches = state_batches(n, samples, seed)
        got = np.concatenate([v / np.linalg.norm(v, axis=1, keepdims=True) for v, _ in batches])
        want = reference_states(n, samples, child_rng(seed))
        assert np.array_equal(bits(got), bits(want))


class ZeroRowRng:
    """A generator whose first batch draw has an all-zero row ``row``, and
    whose next ``zero_redraws`` one-row draws are zero too."""

    def __init__(self, rng, row, zero_redraws=0):
        self.rng, self.row, self.zero_redraws = rng, row, zero_redraws

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        if self.row is not None and np.ndim(z) == 2:
            z[self.row] = 0.0
            self.row = None
        elif np.ndim(z) == 1 and self.zero_redraws:
            z[:] = 0.0
            self.zero_redraws -= 1
        return z


class TestFidelityKernel:
    # The kernel takes f from the unnormalized rows of the stream; it must
    # give the f of the normalized states up to rounding.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_matches_normalized_states(self, n, seed):
        m = random_matrix(np.random.default_rng(n), n, scale=2.0)
        samples = _BATCH + 7
        got = fidelities(m, samples, seed)
        states = reference_states(n, samples, child_rng(seed))
        want = np.abs(expectation(states, m)) ** 2
        assert np.abs(got - want).max() <= 1e-14 * want.max()

    @pytest.mark.parametrize("n", [1, 3])
    def test_tiny_norm_row_is_redrawn_in_place(self, monkeypatch, n):
        row, count, seed = 5, 1000, 11
        m = random_matrix(np.random.default_rng(0), n)
        # Row ``row`` of the batch and its first redraw are zero; the row is
        # then the second 2n normals drawn after the batch.
        rng = child_rng(seed)
        z = rng.standard_normal((count, 2 * n))
        rng.standard_normal(2 * n)
        z[row] = rng.standard_normal(2 * n)
        zero_row = ZeroRowRng(child_rng(seed), row, zero_redraws=1)
        v, r2 = _gaussian_rows(zero_row, np.empty((count, 2 * n)), np.empty(count))
        assert np.array_equal(bits(v), bits(z.view(np.complex128)))
        assert r2[row] == z[row] @ z[row]

        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda s: ZeroRowRng(default_rng(s), row, zero_redraws=1)
        )
        f = fidelities(m, count, seed)
        monkeypatch.undo()
        v = z.view(np.complex128)
        want = np.abs(expectation(v / np.linalg.norm(v, axis=1, keepdims=True), m)) ** 2
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
        states = reference_states(n, 200, rng)
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
            monomial_integral_exact((1, 0), 3)

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            monomial_integral_exact((-1, 1), 2)

    def test_all_zero(self):
        with pytest.raises(ValueError):
            monomial_integral_exact((0, 0), 2)

    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_monte_carlo(self, n):
        states = haar_states(n, 100_000, seed=77)
        mags = np.abs(states) ** 2
        for pattern in [(4,), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)]:
            k = pattern + (0,) * (n - len(pattern))
            vals = np.prod(mags ** np.array(k), axis=1)
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - float(monomial_integral_exact(k, n))) <= 4 * se


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
        with pytest.raises(ConfigError):
            mc_moment(np.eye(2), 1, 50, seed=0)

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigError):
            mc_moment(np.eye(2), 3, 1000, seed=0)

    def test_deterministic_per_seed(self):
        a = mc_moment(REFERENCE, 1, 30_000, seed=9)
        b = mc_moment(REFERENCE, 1, 30_000, seed=9)
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
        h, _ = mc_sample(np.eye(2), 10, 1000, seed=0)
        assert h.counts[-1] == 1000
        assert h.counts[:-1].sum() == 0

    def test_deterministic(self):
        a, _ = mc_sample(REFERENCE, 20, 5000, seed=4)
        b, _ = mc_sample(REFERENCE, 20, 5000, seed=4)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.edges, b.edges)

    def test_densities_normalized(self):
        h, _ = mc_sample(REFERENCE, 25, 20_000, seed=5)
        total = (h.densities * h.widths).sum()
        assert total == pytest.approx(h.counts.sum() / h.samples)

    def test_edge_clamp_spans_batches(self):
        # The clamp runs batch by batch; values near both edges in every
        # batch must be clamped exactly as a whole-array pass would.
        rng = np.random.default_rng(8)
        f = rng.uniform(0.2, 0.6, 2 * _BATCH + 3)
        f[rng.integers(0, f.size, 200)] = 0.2 - 1e-12
        f[rng.integers(0, f.size, 200)] = 0.6 + 1e-12
        f[:3] = [0.2 - 1e-3, 0.6 + 1e-3, 0.6 - 1e-15]
        want = f.copy()
        for edge in (0.2, 0.6):
            want[np.abs(want - edge) <= 1e-9] = edge
        batches = [f[start : start + _BATCH] for start in range(0, f.size, _BATCH)]
        h = tally_histogram(batches, 20, (0.2, 0.6))  # the batches are views of f
        assert np.array_equal(f, want)
        assert h.counts.sum() == f.size - 2
        assert np.array_equal(h.counts, np.histogram(want, 20, (0.2, 0.6))[0])

    def test_range_narrower_than_the_slack_keeps_its_shape(self):
        # The support of diag(1, e^{i 1e-4}) is 2.5e-9 wide, and so is the
        # outer range, under the 1e-9 edge slack on either side: no value
        # inside may move onto an edge.
        m = np.diag([1.0, np.exp(1e-4j)])
        d = normal_pdf(eig2_normal(m))
        samples = 100_000
        h, _ = mc_sample(m, 10, samples, seed=1)
        assert h.counts.sum() == samples
        sampled = np.cumsum(h.counts) / samples
        assert np.abs(d.cdf(h.edges[1:]) - sampled).max() <= 1.63 / np.sqrt(samples)

    def test_validates_bins(self):
        with pytest.raises(ConfigError):
            mc_sample(np.eye(2), 1, 100, seed=0)
        with pytest.raises(ConfigError):
            mc_sample(np.eye(2), 64, 10, seed=0)


class TestStream:
    # One pass over the batches must give what a whole-array pass over the
    # same draws gives: the same counts and edges, and the two-pass moments.
    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("known", [True, False], ids=["known_range", "computed_range"])
    def test_counts_match_concatenated_batches(self, seed, known):
        samples, bins = 2 * _BATCH + 5, 40  # three batches
        f = fidelities(REFERENCE, samples, seed)
        if known:
            # Edges 5e-10 inside a value of the first batch and one of the
            # last: both values fall outside the range unless clamped.
            a, b = sorted((f[10], f[-10]))
            value_range = a + 5e-10, b - 5e-10
            expected_range = value_range
        else:
            value_range = None
            expected_range = _outer_range(REFERENCE, bins)
        g = f.copy()
        for edge in expected_range:
            g[np.abs(g - edge) <= 1e-9] = edge
        want = np.histogram(g, bins, expected_range)
        if known:
            assert want[0].sum() == np.histogram(f, bins, value_range)[0].sum() + 2
        else:
            assert want[0].sum() == samples
        if known:
            cuts = range(0, samples, _BATCH)
            hist = tally_histogram((f[a : a + _BATCH] for a in cuts), bins, value_range)
        else:
            hist, _ = mc_sample(REFERENCE, bins, samples, seed)
        assert hist.counts.tobytes() == want[0].tobytes()
        assert hist.edges.tobytes() == want[1].tobytes()

    def test_computed_range_edges_in_different_batches(self):
        # Values within the edge slack of both computed edges, just inside
        # and just outside, sit at uneven batch cuts, in the first, middle
        # and last batches; each is clamped onto its edge and counted.
        m = np.eye(3) + 0.3 * random_matrix(np.random.default_rng(9), 3)
        lo, hi = _outer_range(m, 25)
        assert 0 < lo < hi
        slack = 1e-9 * max(1.0, lo, hi)
        rng = np.random.default_rng(9)
        f = rng.uniform(lo, hi, 3 * _BATCH + 11)
        cuts = [0, 5, _BATCH + 3, 2 * _BATCH, f.size]
        f[[0, 4, _BATCH + 3, 2 * _BATCH - 1]] = [hi + 0.5 * slack, lo - 0.5 * slack, hi, lo]
        f[[2 * _BATCH, f.size - 1]] = [lo + 0.5 * slack, hi - 0.5 * slack]
        f[7] = hi + 2 * slack  # beyond the slack: dropped
        want = f.copy()
        for edge in (lo, hi):
            want[np.abs(want - edge) <= slack] = edge
        batches = [f[a:b].copy() for a, b in zip(cuts, cuts[1:])]
        h = tally_histogram(batches, 25, (lo, hi))
        expected = np.histogram(want, 25, (lo, hi))
        assert h.counts.sum() == f.size - 1
        assert np.array_equal(h.counts, expected[0]) and np.array_equal(h.edges, expected[1])
        assert h.counts[0] >= 3 and h.counts[-1] >= 3

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_moments_match_two_pass(self, order, seed):
        m = random_matrix(np.random.default_rng(5), 3)
        samples = 3 * _BATCH + 17
        x = fidelities(m, samples, seed) ** order
        mean, std_error = x.mean(), x.std(ddof=1) / np.sqrt(x.size)
        est = mc_moment(m, order, samples, seed)
        assert abs(est.mean - mean) <= 1e-15 * mean
        assert abs(est.std_error - std_error) <= 1e-15 * std_error
        if order == 1:
            assert mc_sample(m, 20, samples, seed)[1] == est

    def test_power_of_two_scale_is_exact(self):
        # f of m / 2^500 is f of m times 2^-1000, near the bottom of the
        # float range; the estimate's scale keeps every bit of it.
        m = random_matrix(np.random.default_rng(9), 3)
        est = mc_moment(m, 1, 2 * _BATCH + 5, seed=4)
        tiny = mc_moment(m / 2.0**500, 1, 2 * _BATCH + 5, seed=4)
        assert est.mean == ldexp(tiny.mean, 1000)
        assert est.std_error == ldexp(tiny.std_error, 1000)

    def test_estimate_taken_before_the_clamp(self):
        # Values within the slack of an edge move onto it for binning only.
        x = np.random.default_rng(3).uniform(0.2, 0.6, 1000)
        x[:10] = 0.2 - 1e-10
        want = x.copy()
        tally = _Tally(20, (0.2, 0.6))
        tally.add(x)
        assert tally.histogram(seed=0).counts.sum() == x.size
        est = tally.estimate(seed=0)
        assert est.mean == want.mean()
        assert est.std_error == want.std(ddof=1) / np.sqrt(want.size)

    def test_memory_flat_in_samples(self):
        # No map (the 2x2 reference, a 4x4 map, a non-normal 2x2 map) keeps
        # anything sized by the sample count.
        random4 = random_matrix(np.random.default_rng(4), 4, scale=0.25)
        non_normal = np.array([[1.0, 2.0], [0.0, -0.5j]])
        for m in (REFERENCE, random4, non_normal):
            peaks = []
            for samples in (200_000, 800_000):
                tracemalloc.start()
                try:
                    mc_sample(m, 50, samples, seed=1)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.1 * peaks[0]


def near_unitary(n, delta, seed):
    """exp(i delta H) for a seeded Hermitian H with spectrum in [-1, 1]."""
    rng = np.random.default_rng(seed)
    w, v = np.linalg.eigh(random_hermitian(rng, n))
    w /= np.abs(w).max()
    return (v * np.exp(1j * delta * w)) @ v.conj().T


def sweep_maps():
    rng = np.random.default_rng(2026)
    maps = {f"random{n}": random_matrix(rng, n) for n in range(1, 6)}
    maps["non_normal2"] = np.array([[1.0, 2.0], [0.0, -0.5j]])
    # Normal to eig2_normal's tolerance, but W(m) is a visible ellipse: the
    # closed-form support holds about a fifth of its draws.
    maps["nearly_normal2"] = np.array([[1.0, 5e-6], [0.0, 1.0 + 1e-6]])
    u, v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    maps["rank1"] = np.outer(u, v.conj())
    maps["scalar3"] = (0.6 - 0.8j) * np.eye(3)
    for k in range(1, 9):
        maps[f"near_unitary_1e-{k}"] = near_unitary(3, 10.0**-k, k)
    maps["tiny"] = 1e-150 * random_matrix(rng, 3)
    maps["huge"] = 1e150 * random_matrix(rng, 3)
    return maps


SWEEP = sweep_maps()


class TestOuterRange:
    # The range fixed before sampling must hold every sampled f, up to the
    # edge slack, so no draw is dropped from the histogram.
    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_holds_every_sample(self, name):
        m, samples, bins = SWEEP[name], 200_000, 50
        lo, hi = _outer_range(m, bins)
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        for seed in range(3):
            hist, est = mc_sample(m, bins, samples, seed)
            assert est == mc_moment(m, 1, samples, seed)
            assert hist.counts.sum() == samples
            assert (hist.edges[0], hist.edges[-1]) == (lo, hi)
            f = fidelities(m, samples, seed)
            assert lo - slack <= f.min() and f.max() <= hi + slack

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_scalar_map_parks_all_mass_in_top_bin(self, n):
        h, _ = mc_sample((0.3 + 0.4j) * np.eye(n), 20, 1000, seed=0)
        assert h.counts[-1] == 1000
        assert h.edges[-1] == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_normal_map_top_edge_is_exact(self, seed):
        # For a normal map the top is max |lambda|^2 (||m||_2 is the
        # numerical radius); the bottom is an outer bound of the closed form.
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 2)
        m = u @ np.diag(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) @ u.conj().T
        lo, hi = _outer_range(m, 50)
        want_lo, want_hi = normal_pdf(eig2_normal(m)).support()
        assert abs(hi - want_hi) <= 8 * np.finfo(float).eps * want_hi
        assert lo <= want_lo * (1 + 1e-15) and lo >= want_lo - 1e-7

    def test_overflowing_range_is_finite_without_warnings(self):
        # pytest turns RuntimeWarnings into errors; the sampler, not the
        # range, reports the overflow.
        lo, hi = _outer_range(1e200 * np.eye(3), 50)
        assert np.isfinite(lo) and hi == np.finfo(float).max
        with pytest.raises(ValueError, match="overflows"):
            mc_sample(1e200 * np.eye(3), 50, 1000, seed=0)
