import inspect
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import ldexp

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    EDGE_SLACK,
    _Tally,
    _fold,
    _gaussian_rows,
    _lanes,
    _mc_moments,
    _outer_range,
    _overlaps,
    _workspace_size,
    state_batches,
)
from gatefid.verify import _RATIO_BATCHES, _conditional_ops, _leaky_gate, _ratio_sums
from conftest import (
    assert_scale_covariant,
    haar_states,
    random_hermitian,
    random_matrix,
    random_unitary,
    reference_overlap,
    reference_states,
)

L0 = 0.7 * np.exp(1j * np.pi / 8)
L1 = 0.8 * np.exp(1j * 4 * np.pi / 5)
REFERENCE = np.diag([L0, L1])


# Maps whose histogram must follow a power-of-two scale: two-piece, a full
# 4x4 numerical range, a scalar (parked range) and a non-normal 2x2 map.
SCALED = {
    "reference": REFERENCE,
    "random4": random_matrix(np.random.default_rng(4), 4),
    "scalar3": (0.3 + 0.4j) * np.eye(3),
    "non_normal2": np.array([[1, 2], [0, -0.5j]]),
}


def fidelities(m, samples, seed):
    """Every sampled f of one stream, concatenated in draw order (each batch
    is copied out before the next one overwrites it)."""
    return np.concatenate([q[0] ** 2 for q in _overlaps(np.asarray(m)[None], samples, seed)])


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


class TestWorkerThread:
    # Each stream draws its next batch on one worker thread. An empty stream
    # starts none, and no worker outlives its stream, however the stream ends.
    def test_full_stream(self):
        before = threading.active_count()
        assert sum(len(v) for v, _ in state_batches(2, 3 * _BATCH + 5, 1)) == 3 * _BATCH + 5
        assert threading.active_count() == before

    def test_stream_dropped_after_its_first_batch(self):
        before = threading.active_count()
        batches = state_batches(2, 3 * _BATCH, 1)
        next(batches)
        assert threading.active_count() == before + 1
        del batches
        assert threading.active_count() == before

    def test_consumer_raises_while_the_next_batch_is_drawn(self):
        before = threading.active_count()
        with pytest.raises(ValueError, match="overflows"):
            mc_moment(1e200 * np.eye(2), 1, 3 * _BATCH, 0)
        assert threading.active_count() == before

    def test_empty_stream(self):
        before = threading.active_count()
        assert list(state_batches(2, 0, 1)) == []
        assert threading.active_count() == before


def collect(overlaps):
    """Every overlap of a stream, copied out batch by batch: (k, samples)."""
    return np.concatenate([q.copy() for q in overlaps], axis=1)


def tally_bits(tally):
    return tally.count, tally.mean, tally.m2, tally.exponent


def one_after_another(jobs):
    """Each job on its own lone stream, in job order."""
    return [reduce(_overlaps(ops, samples, seed), *args) for ops, samples, seed, reduce, *args in jobs]


def lane_jobs(count):
    """``count`` jobs over n = 2..5: overlap copies, orders 1 and 2 of the
    tally, and a two-operator conditional job, at stream lengths from under
    one batch to over two."""
    rng = np.random.default_rng(20)
    kinds = [
        lambda m: (m[None], collect),
        lambda m: (m[None], _fold, 1),
        lambda m: (m[None], _fold, 2),
        lambda m: (_conditional_ops(_leaky_gate(0.5)), _ratio_sums),
    ]
    jobs = []
    for i in range(count):
        n, samples = 2 + i % 4, (150, _BATCH + 7, 2 * _BATCH + 2000)[i % 3]
        ops, reduce, *args = kinds[i % 4](random_matrix(rng, n))
        if reduce is _ratio_sums:  # whole runs of samples // _RATIO_BATCHES rows
            args = [samples // _RATIO_BATCHES]
            samples = args[0] * _RATIO_BATCHES
        jobs.append((ops, samples, 100 + i, reduce, *args))
    return jobs


def result_bits(results):
    return [
        tally_bits(r) if isinstance(r, _Tally) else (r.shape, bits(r).tolist()) for r in results
    ]


class TestLanes:
    # The lane runner runs independent streams two at a time: each job keeps
    # the bits of its lone stream, the results come in job order, and no
    # thread or workspace outlives a run.
    @pytest.mark.parametrize("count", [0, 1, 3, 20])
    def test_bits_of_the_lone_streams(self, count):
        jobs = lane_jobs(count)
        assert {len(j[0][0]) for j in jobs} <= {2, 3, 4, 5}
        assert result_bits(_lanes(jobs)) == result_bits(one_after_another(jobs))

    def test_mc_moments_are_mc_moment(self):
        rng = np.random.default_rng(5)
        streams = [(random_matrix(rng, n), order, 3000, n + order) for n in (2, 3) for order in (1, 2)]
        assert _mc_moments(streams) == [mc_moment(*s) for s in streams]

    def test_two_runs_at_once_with_fast_thread_switches(self):
        # Four lanes on two cores, switching threads every microsecond: each
        # job runs once and keeps the bits of its lone stream.
        ran = []

        def counted(overlaps, i):
            ran.append(i)
            return tally_bits(_fold(overlaps, 1))

        jobs = [(np.diag([1.0, 0.5 + i / 200])[None], 100 + i, i, counted, i) for i in range(120)]
        want = [tally_bits(_fold(_overlaps(ops, samples, seed), 1)) for ops, samples, seed, *_ in jobs]
        got = [None, None]

        def run(half):
            got[half] = _lanes(jobs[half::2])

        threads = [threading.Thread(target=run, args=(half,)) for half in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(ran) == list(range(len(jobs)))
        assert got[0] == want[0::2] and got[1] == want[1::2]

    def test_threads_after_a_run(self):
        before = threading.active_count()
        _lanes(lane_jobs(5))
        assert threading.active_count() == before

    def test_threads_after_a_job_raises(self):
        # Job 2 of 5 overflows on its first batch; that error is raised once
        # both lanes have stopped.
        jobs = lane_jobs(5)
        jobs[1] = (1e200 * np.eye(2)[None], 3 * _BATCH, 0, _fold, 1)
        before = threading.active_count()
        with pytest.raises(ValueError, match="overflows"):
            _lanes(jobs)
        assert threading.active_count() == before

    def test_empty_list_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        assert _lanes([]) == []
        assert started == []

    def test_workspaces_are_the_only_large_blocks(self):
        # Allocated by the caller and reused: every block of 1 MB or more
        # that a 20-job run holds comes from the runner's workspace line, and
        # there are two of them. Each job snapshots the heap when its stream
        # is done, and the run's peak is the workspaces and a little more.
        source, first = inspect.getsourcelines(_lanes)
        line = first + next(i for i, text in enumerate(source) if "np.empty(" in text)
        snapshots = []

        def fold_then_snapshot(overlaps, order):
            tally = _fold(overlaps, order)
            snapshots.append(tracemalloc.take_snapshot())
            return tally

        rng = np.random.default_rng(6)
        jobs = [
            (random_matrix(rng, n)[None], 2 * _BATCH, n + i, fold_then_snapshot, 2)
            for n in (2, 3, 4, 5)
            for i in range(5)
        ]
        tracemalloc.start()
        try:
            _lanes(jobs)
            # The snapshots themselves are traced, so the peak is taken on a
            # run without them.
            plain = [(ops, samples, seed, _fold, order) for ops, samples, seed, _, order in jobs]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _lanes(plain)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        workspace = _workspace_size(_BATCH, 5, 1, 1) * 8
        assert len(snapshots) == 20
        for snapshot in snapshots:
            large = [t for t in snapshot.traces if t.size >= 1 << 20]
            where = {(t.traceback[0].filename, t.traceback[0].lineno) for t in large}
            assert where == {(inspect.getsourcefile(_lanes), line)}
            assert [t.size for t in large] == [workspace, workspace]
        assert peak <= 2 * workspace + (1 << 20)


class ZeroRowRng:
    """A generator whose batch draw number ``batch`` (from 0) has an all-zero
    row ``row``, and whose next ``zero_redraws`` one-row draws are zero too."""

    def __init__(self, rng, row, zero_redraws=0, batch=0):
        self.rng, self.row, self.zero_redraws, self.batch = rng, row, zero_redraws, batch

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        if self.row is not None and np.ndim(z) == 2:
            if self.batch == 0:
                z[self.row] = 0.0
                self.row = None
            self.batch -= 1
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
        want = np.abs(reference_overlap(states, m)) ** 2
        assert np.abs(got - want).max() <= 1e-14 * want.max()

    # The zero row sits in the last batch: the only one of a one-batch
    # stream, or the second, which is drawn into the second buffer.
    @pytest.mark.parametrize(
        "n,batch",
        [
            pytest.param(1, 0, id="1"),
            pytest.param(3, 0, id="3"),
            pytest.param(1, 1, id="1-second_buffer"),
            pytest.param(3, 1, id="3-second_buffer"),
        ],
    )
    def test_tiny_norm_row_is_redrawn_in_place(self, monkeypatch, n, batch):
        row, seed = 5, 11
        count, at = batch * _BATCH + 1000, batch * _BATCH + row
        m = random_matrix(np.random.default_rng(0), n)
        # Row ``row`` of that batch and its first redraw are zero; the row is
        # then the second 2n normals drawn after the batch.
        rng = child_rng(seed)
        z = rng.standard_normal((count, 2 * n))
        rng.standard_normal(2 * n)
        z[at] = rng.standard_normal(2 * n)
        zero_row = ZeroRowRng(child_rng(seed), at, zero_redraws=1)
        v, r2 = _gaussian_rows(zero_row, np.empty((count, 2 * n)), np.empty(count))
        assert np.array_equal(bits(v), bits(z.view(np.complex128)))
        assert r2[at] == z[at] @ z[at]

        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random,
            "default_rng",
            lambda s: ZeroRowRng(default_rng(s), row, zero_redraws=1, batch=batch),
        )
        f = fidelities(m, count, seed)
        monkeypatch.undo()
        v = z.view(np.complex128)
        want = np.abs(reference_overlap(v / np.linalg.norm(v, axis=1, keepdims=True), m)) ** 2
        assert abs(f[at] - want[at]) <= 1e-14 * want.max()
        assert np.abs(f - want).max() <= 1e-14 * want.max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflow_raises_without_warnings(self, n):
        # pytest turns RuntimeWarnings into errors, so a warning would fail
        # this test instead of raising the ValueError below.
        with pytest.raises(ValueError, match="overflows"):
            mc_moment(1e200 * np.eye(n), 1, 1000, seed=0)

    def test_second_moment_overflow_raises_without_warnings(self):
        # f near 1e200 is finite but f^2 is not: the check follows the last square.
        with pytest.raises(ValueError, match="overflows"):
            mc_moment(1e100 * np.eye(2), 2, 1000, seed=0)


class TestExpectation:
    # The kernel takes |<v|a|v>| / |v|^2 for a stack of operators from one
    # stream; each must match the double loop over the normalized states.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["general", "hermitian"])
    def test_matches_double_loop(self, rng, n, kind):
        ops = np.stack(
            [
                random_matrix(rng, n, scale=3.0) if kind == "general" else random_hermitian(rng, n)
                for _ in range(3)
            ]
        )
        samples, seed = _BATCH + 200, n
        got = np.concatenate([q.copy() for q in _overlaps(ops, samples, seed)], axis=1)
        assert got.shape == (3, samples)
        states = reference_states(n, samples, child_rng(seed))
        for a, q in zip(ops, got):
            want = np.zeros(samples, dtype=np.complex128)
            for i in range(n):
                for j in range(n):
                    want += states[:, i].conj() * a[i, j] * states[:, j]
            assert np.abs(q - np.abs(want)).max() <= 1e-13 * np.abs(a).max()


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
        # The clip runs batch by batch; values near both edges in every
        # batch must be clipped exactly as a whole-array pass would, and a
        # value beyond the slack raises in whichever batch it comes.
        rng = np.random.default_rng(8)
        f = rng.uniform(0.2, 0.6, 2 * _BATCH + 3)
        f[rng.integers(0, f.size, 200)] = 0.2 - 1e-12
        f[rng.integers(0, f.size, 200)] = 0.6 + 1e-12
        f[2] = 0.6 - 1e-15
        want = np.clip(f, 0.2, 0.6)
        batches = [f[start : start + _BATCH] for start in range(0, f.size, _BATCH)]
        h = tally_histogram(batches, 20, (0.2, 0.6))  # the batches are views of f
        assert np.array_equal(f, want)
        assert h.counts.sum() == f.size
        assert np.array_equal(h.counts, np.histogram(want, 20, (0.2, 0.6))[0])
        for i, bad in ((0, 0.2 - 1e-3), (_BATCH + 1, 0.6 + 1e-3), (-1, 0.6 + 1e-9)):
            g = f.copy()
            g[i] = bad
            with pytest.raises(ValueError, match="leaves the histogram range"):
                tally_histogram([g[a : a + _BATCH] for a in range(0, g.size, _BATCH)], 20, (0.2, 0.6))

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
        cuts = range(0, samples, _BATCH)
        if known:
            # Values half the slack outside both edges, one in the first
            # batch and one in the last: both fall outside the range unless
            # clipped.
            value_range = expected_range = lo, hi = f.min(), f.max()
            slack = EDGE_SLACK * hi
            f[[10, -10]] = lo - 0.5 * slack, hi + 0.5 * slack
        else:
            value_range = None
            expected_range = _outer_range(REFERENCE, bins)
        want = np.histogram(np.clip(f, *expected_range), bins, expected_range)
        assert want[0].sum() == samples
        if known:
            assert np.histogram(f, bins, value_range)[0].sum() == samples - 2
            g = f.copy()
            hist = tally_histogram((g[a : a + _BATCH] for a in cuts), bins, value_range)
        else:
            hist, _ = mc_sample(REFERENCE, bins, samples, seed)
        assert hist.counts.tobytes() == want[0].tobytes()
        assert hist.edges.tobytes() == want[1].tobytes()
        if known:
            # Twice the slack outside an edge, in the last batch: a fault.
            f[-10] = hi + 2 * slack
            with pytest.raises(ValueError, match="leaves the histogram range"):
                tally_histogram((f[a : a + _BATCH] for a in cuts), bins, value_range)

    def test_computed_range_edges_in_different_batches(self):
        # Values within the edge slack of both computed edges, just inside
        # and just outside, sit at uneven batch cuts, in the first, middle
        # and last batches; each is counted in its edge bin. One beyond the
        # slack raises.
        m = np.eye(3) + 0.3 * random_matrix(np.random.default_rng(9), 3)
        lo, hi = _outer_range(m, 25)
        assert 0 < lo < hi
        slack = EDGE_SLACK * hi
        rng = np.random.default_rng(9)
        f = rng.uniform(lo, hi, 3 * _BATCH + 11)
        cuts = [0, 5, _BATCH + 3, 2 * _BATCH, f.size]
        f[[0, 4, _BATCH + 3, 2 * _BATCH - 1]] = [hi + 0.5 * slack, lo - 0.5 * slack, hi, lo]
        f[[2 * _BATCH, f.size - 1]] = [lo + 0.5 * slack, hi - 0.5 * slack]
        want = f.copy()
        for edge in (lo, hi):
            want[np.abs(want - edge) <= slack] = edge
        batches = [f[a:b].copy() for a, b in zip(cuts, cuts[1:])]
        h = tally_histogram(batches, 25, (lo, hi))
        expected = np.histogram(want, 25, (lo, hi))
        assert h.counts.sum() == f.size
        assert np.array_equal(h.counts, expected[0]) and np.array_equal(h.edges, expected[1])
        assert h.counts[0] >= 3 and h.counts[-1] >= 3
        f[7] = hi + 2 * slack  # beyond the slack: a fault
        with pytest.raises(ValueError, match="leaves the histogram range"):
            tally_histogram([f[a:b].copy() for a, b in zip(cuts, cuts[1:])], 25, (lo, hi))

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

    @pytest.mark.parametrize("name", sorted(SCALED))
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(-480, 480))
    @example(k=-480)
    @example(k=480)
    def test_histogram_follows_a_power_of_two_scale(self, name, k):
        # f of 2^k m is 4^k times f of m, bit for bit, and every edge
        # decision is relative: the same counts, and edges and estimate
        # exactly 4^k times.
        def run(m):
            hist, est = mc_sample(m, 50, 2_000, seed=11)
            return hist.counts, hist.edges, est.mean, est.std_error

        assert_scale_covariant(run, SCALED[name], k, 2)

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
    # Normal to an absolute 1e-10 test of [m, m^dag], but W(m) is a visible
    # ellipse: a segment law would hold about a fifth of its draws.
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
