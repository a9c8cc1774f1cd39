import inspect
import itertools
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce
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
from gatefid import sampling
from gatefid.linalg import ConfigError
from gatefid.sampling import (
    _BATCH,
    EDGE_SLACK,
    _Tally,
    _carve,
    _draws,
    _fold,
    _gaussian_rows,
    _kernel,
    _lanes,
    _moment_job,
    _outer_range,
    _sample_job,
    _workspace_size,
)
from gatefid.verify import (
    _conditional_job,
    _conditional_ops,
    _leaky_gate,
    _plan_sa_decomposition,
    _ratio_tallies,
)
from conftest import (
    assert_scale_covariant,
    batch_rng,
    haar_states,
    random_hermitian,
    random_matrix,
    random_unitary,
    reference_batches,
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


def batches(samples):
    return -(-samples // _BATCH)


def one_thread(job, keep=None):
    """A job's result from one pass over its batches on this thread, in
    batch order: the reference the lanes must match. Given a list ``keep``,
    a copy of each batch's overlaps is appended to it."""
    ops, samples, seed, step, *args = job
    ops = np.asarray(ops, dtype=np.complex128)
    rows, n = min(_BATCH, samples), ops.shape[1]
    (z, r2), buffers, work = _carve(np.empty(_workspace_size(rows, n, len(ops))), rows, n, len(ops))
    parts = []
    for k in range(batches(samples)):
        q = _kernel(ops, *_draws(samples, seed, k, z, r2), buffers)
        if keep is not None:
            keep.append(q.copy())
        try:
            parts.append(step(q, work, *args))
        except ValueError as exc:
            parts.append(exc)
            break
    if isinstance(parts[-1], ValueError):
        return parts[-1]
    return [reduce(_Tally.merge, column) for column in zip(*parts)]


def overlaps(ops, samples, seed):
    """Every overlap of a stream, batch by batch on this thread: (k, samples)."""
    kept = []
    one_thread((ops, samples, seed, lambda q, work: []), kept)
    return np.concatenate(kept, axis=1)


def fidelities(m, samples, seed):
    """Every sampled f of one stream, in draw order."""
    return overlaps(np.asarray(m)[None], samples, seed)[0] ** 2


def tally(batches, bins=0, value_range=None):
    """The partials of ``batches`` merged in order, as a stream's tally,
    binned over ``bins`` equal bins of ``value_range`` when ``bins`` is given."""
    edges = np.linspace(*value_range, bins + 1) if bins else None
    parts = [_Tally.partial(x, float(x.min()), float(x.max()), np.empty(x.size), edges) for x in batches]
    return reduce(_Tally.merge, parts)


def tally_histogram(batches, bins, value_range):
    return tally(batches, bins, value_range).histogram(seed=0)


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


def drawn_batches(n, samples, seed, order=None):
    """Copies of the ``(v, r2)`` batches that ``sampling._draws`` draws for
    the stream of ``seed``, in batch order, each drawn into the same pair
    in the order ``order`` (batch order if not given)."""
    rows = min(_BATCH, samples)
    z, r2 = np.empty((rows, 2 * n)), np.empty(rows)
    got = {}
    for k in order or range(batches(samples)):
        v, norms = _draws(samples, seed, k, z, r2)
        got[k] = v.copy(), norms.copy()
    return [got[k] for k in sorted(got)]


def assert_reference_stream(n, samples, seed, order=None):
    """The stream's batches are the reference stream's, bit for bit, and
    each batch's states the normalized rows of one normal draw of its own
    generator."""
    got = drawn_batches(n, samples, seed, order)
    want = list(reference_batches(n, samples, seed))
    assert len(got) == len(want) == batches(samples)
    for k, ((v, r2), (want_v, want_r2)) in enumerate(zip(got, want)):
        assert np.array_equal(bits(v), bits(want_v)) and np.array_equal(bits(r2), bits(want_r2))
        states = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(bits(states), bits(reference_states(n, len(v), batch_rng(seed, k))))


class TestSeedToStateMap:
    # Pins the map from a seed to its states bit for bit: a faster kernel
    # must not change which states a seed draws. Batch k of a stream is one
    # normal draw of SFC64 seeded by the k-th child of the seed's first
    # SeedSequence child, built in the tests from numpy alone, so both sides
    # follow the installed numpy (2.4.6 when written): NEP 19 does not pin a
    # Generator's streams across numpy versions, so a seed's states may move
    # with numpy.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 42])
    def test_sample_states_bitwise(self, n, seed):
        # One batch in every dimension.
        assert_reference_stream(n, 4096, seed)

    @pytest.mark.parametrize("full_batches", [1, 3])
    def test_state_batches_bitwise(self, full_batches):
        # Each batch has its own generator across the batch cuts, the last
        # batch cut short.
        assert_reference_stream(2, full_batches * _BATCH + 5, 7)

    def test_a_batch_draws_the_same_rows_in_any_order(self):
        # No batch depends on the batches drawn before it, so a lane may
        # take any of them; a tuple seed (verify's) follows the same rule.
        assert_reference_stream(3, 3 * _BATCH + 5, (7, 5, 3), order=[3, 1, 0, 2])


class TestWorkerThread:
    # A run of stream jobs has one worker thread, and the caller's thread and
    # the worker share even a lone job's batches. An empty run starts none,
    # and no worker outlives its run, however the run ends.
    def test_full_stream(self, monkeypatch):
        # The first batch drawn waits until a second thread draws one too, so
        # this passes only if both lanes draw batches of the one stream.
        gaussian_rows, drawn_on, second = sampling._gaussian_rows, [], threading.Event()

        def recording(rng, z, r2):
            drawn_on.append(threading.get_ident())
            if len(set(drawn_on)) > 1:
                second.set()
            elif len(drawn_on) == 1:
                second.wait(timeout=30)
            return gaussian_rows(rng, z, r2)

        monkeypatch.setattr(sampling, "_gaussian_rows", recording)
        before = threading.active_count()
        job = (np.eye(2)[None], 3 * _BATCH + 5, 1, _fold, (1,))
        ((got,),) = _lanes([job])
        assert got.count == 3 * _BATCH + 5
        assert threading.active_count() == before
        assert second.is_set() and len(drawn_on) == 4 and len(set(drawn_on)) == 2
        monkeypatch.undo()
        assert result_bits([[got]]) == result_bits([one_thread(job)])

    def test_consumer_raises_while_the_next_batch_is_drawn(self):
        # f = 1e400 overflows on every batch, while the other lane draws the
        # next: the first batch's error is the job's result, and mc_moment
        # raises it.
        before = threading.active_count()
        (got,) = _lanes([(1e200 * np.eye(2)[None], 3 * _BATCH, 0, _fold, (1,))])
        assert isinstance(got, ValueError) and "overflows" in str(got)
        with pytest.raises(ValueError, match="overflows"):
            mc_moment(1e200 * np.eye(2), 1, 3 * _BATCH, 0)
        assert threading.active_count() == before

    def test_empty_stream(self):
        before = threading.active_count()
        assert _lanes([]) == []
        assert threading.active_count() == before


def tally_bits(tally):
    counts = None if tally.counts is None else tally.counts.tolist()
    return tally.count, tally.mean, tally.m2, tally.exponent, counts


def one_after_another(jobs):
    """Each job run alone, in job order."""
    return [_lanes([job])[0] for job in jobs]


def lane_jobs(count):
    """``count`` jobs over n = 2..5: orders 1 and 2 of the tally, both orders
    of two maps, a two-operator conditional job and a binned job, at stream
    lengths from under one batch to over two."""
    rng = np.random.default_rng(20)
    kinds = [
        lambda m, samples, seed: (m[None], samples, seed, _fold, (1,)),
        lambda m, samples, seed: (m[None], samples, seed, _fold, (2,)),
        lambda m, samples, seed: (np.stack([m, m.T]), samples, seed, _fold, (1, 2)),
        lambda m, samples, seed: (_conditional_ops(_leaky_gate(0.5)), samples, seed, _ratio_tallies),
        lambda m, samples, seed: _sample_job(m, 30, samples, seed),
    ]
    jobs = []
    for i in range(count):
        n, samples = 2 + i % 4, (150, _BATCH + 7, 2 * _BATCH + 2000)[i % 3]
        jobs.append(kinds[i % 5](random_matrix(rng, n), samples, 100 + i))
    return jobs


def result_bits(results):
    """The bits of each result: a tally or an error, or a list of them."""

    def of(r):
        if isinstance(r, _Tally):
            return tally_bits(r)
        if isinstance(r, list):
            return [of(x) for x in r]
        return type(r), str(r)

    return [of(r) for r in results]


class TestLanes:
    # The runner splits every job into its batches and runs them two at a
    # time: each job's result is the bits of a one-thread pass over its
    # batches, whichever jobs run beside it, the results come in job order,
    # and no thread or workspace outlives a run.
    @pytest.mark.parametrize("count", [0, 1, 3, 20])
    def test_bits_of_the_lone_streams(self, count):
        jobs = lane_jobs(count)
        assert {len(j[0][0]) for j in jobs} <= {2, 3, 4, 5}
        want = result_bits([one_thread(job) for job in jobs])
        assert result_bits(_lanes(jobs)) == result_bits(one_after_another(jobs)) == want

    def test_moment_jobs_are_mc_moment(self):
        rng = np.random.default_rng(5)
        streams = [(random_matrix(rng, n), order, 3000, n + order) for n in (2, 3) for order in (1, 2)]
        tallies = _lanes([_moment_job([m], (order,), samples, seed) for m, order, samples, seed in streams])
        assert [t.estimate(s[-1]) for (t,), s in zip(tallies, streams)] == [mc_moment(*s) for s in streams]

    def test_each_reduction_alone_and_among_others(self):
        # Alone, a job's batches are shared by both lanes; among other jobs,
        # they may all run on one. Each step keeps its bits either way.
        rng = np.random.default_rng(21)
        samples = 2 * _BATCH + 2000
        jobs = [
            _moment_job([random_matrix(rng, 3) for _ in range(2)], (1, 2), samples, 1),
            _conditional_job([_leaky_gate(alpha) for alpha in (0.0, 0.5, 1.0)], samples, 2),
            *_plan_sa_decomposition((3, 0), samples)[0],
            _sample_job(REFERENCE, 40, samples, 4),
        ]
        assert [job[3] for job in jobs] == [_fold, _ratio_tallies, _fold, _fold]
        among = _lanes(jobs + lane_jobs(4))[:4]
        assert result_bits(among) == result_bits(one_after_another(jobs))

    def test_tallies_do_not_follow_lane_timing(self, monkeypatch):
        # The worker lane sleeps before every other batch it draws, so the
        # caller's lane runs ahead of it and the batches of a job finish out
        # of order. Every job's tallies are still the bits of an undelayed
        # run and of a one-thread pass over its batches.
        jobs = lane_jobs(7) + [_sample_job(REFERENCE, 50, 5 * _BATCH + 3, 8)]
        want = result_bits([one_thread(job) for job in jobs])
        assert result_bits(_lanes(jobs)) == want
        gaussian_rows, calls, caller = sampling._gaussian_rows, itertools.count(), threading.get_ident()
        finished = []

        def delayed(rng, z, r2):
            if threading.get_ident() != caller and next(calls) % 2 == 0:
                time.sleep(0.01)
            out = gaussian_rows(rng, z, r2)
            finished.append(rng.bit_generator.seed_seq.spawn_key)
            return out

        monkeypatch.setattr(sampling, "_gaussian_rows", delayed)
        got = _lanes(jobs)
        monkeypatch.undo()
        assert next(calls) > 1  # the worker drew at least two batches
        assert result_bits(got) == want
        assert sorted(finished) == sorted((0, k) for _, samples, *_ in jobs for k in range(batches(samples)))

    def test_partials_are_merged_as_they_come_in(self, monkeypatch):
        # A lone binned stream of 60 batches, with the worker lane delayed on
        # every other batch: each batch's partial is merged once the batches
        # before it are, so only a few partials are alive at any time, not
        # one per batch, and every partial shares the job's one edges array.
        alive, most, edges = weakref.WeakSet(), [0], set()
        partial = _Tally.partial
        gaussian_rows, calls, caller = sampling._gaussian_rows, itertools.count(), threading.get_ident()

        def tracked(*args):
            part = partial(*args)
            alive.add(part)
            most[0] = max(most[0], len(alive))
            edges.add(id(part.edges))
            return part

        def delayed(rng, z, r2):
            if threading.get_ident() != caller and next(calls) % 2 == 0:
                time.sleep(0.002)
            return gaussian_rows(rng, z, r2)

        job = _sample_job(REFERENCE, 50, 60 * _BATCH, 3)
        want = result_bits([one_thread(job)])
        monkeypatch.setattr(_Tally, "partial", tracked)
        monkeypatch.setattr(sampling, "_gaussian_rows", delayed)
        got = _lanes([job])
        monkeypatch.undo()
        assert result_bits(got) == want
        assert 1 <= most[0] <= 8 and edges == {id(job[-1])}

    def test_longest_jobs_start_first(self, monkeypatch):
        # Jobs listed from the cheapest to the costliest, by samples * (2n + k):
        # each lane takes its tasks in non-increasing job cost, and each job's
        # batches in order (the seed a lane hands _draws is its job's rank),
        # and the results still come back in job order with the one-thread bits.
        rng = np.random.default_rng(9)
        jobs = [
            (random_matrix(rng, n)[None], samples, 0, _fold, (2,))
            for samples in (200, 900, 3 * _BATCH)
            for n in (2, 3, 4, 5)
        ]
        jobs.append((_conditional_ops(_leaky_gate(0.5)), 4000, 0, _ratio_tallies))
        cost = [samples * (2 * ops.shape[1] + len(ops)) for ops, samples, *_ in jobs]
        assert cost != sorted(cost, reverse=True)
        rank = sorted(range(len(jobs)), key=lambda i: (-cost[i], i))
        jobs = [(ops, samples, rank.index(i), *rest) for i, (ops, samples, _, *rest) in enumerate(jobs)]
        taken = {}
        draws = sampling._draws

        def recording(samples, seed, k, z, r2):
            taken.setdefault(threading.get_ident(), []).append((seed, k))
            return draws(samples, seed, k, z, r2)

        monkeypatch.setattr(sampling, "_draws", recording)
        got = _lanes(jobs)
        monkeypatch.undo()
        tasks = sorted(task for lane in taken.values() for task in lane)
        assert tasks == [(rank.index(i), k) for i in rank for k in range(batches(jobs[i][1]))]
        assert all(lane == sorted(lane) for lane in taken.values())
        assert result_bits(got) == result_bits([one_thread(job) for job in jobs])

    def test_two_runs_at_once_with_fast_thread_switches(self):
        # Four lanes on two cores, switching threads every microsecond: each
        # job runs once and keeps the bits it has when run alone.
        ran = []

        def counted(q, work, i):
            ran.append(i)
            return _fold(q, work, (1,))

        jobs = [(np.diag([1.0, 0.5 + i / 200])[None], 100 + i, i, counted, i) for i in range(120)]
        want = result_bits(one_after_another(jobs))
        ran.clear()
        got = [None, None]

        def run(half):
            got[half] = result_bits(_lanes(jobs[half::2]))

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
        # Job 2 of 5 overflows on its first batch: that ValueError is its
        # result, and the other jobs run on with the bits they have alone.
        jobs = lane_jobs(5)
        jobs[1] = (1e200 * np.eye(2)[None], 3 * _BATCH, 0, _fold, (1,))
        before = threading.active_count()
        got = _lanes(jobs)
        assert threading.active_count() == before
        assert isinstance(got[1], ValueError) and "overflows" in str(got[1])
        others = jobs[:1] + jobs[2:]
        assert result_bits(got[:1] + got[2:]) == result_bits(one_after_another(others))

    def test_a_failed_job_skips_its_later_batches(self):
        # Every batch of a 20-batch stream raises, on whichever lane takes
        # it: the job's result is batch 0's error, and once it is stored no
        # lane starts another batch of that job. At most the one batch the
        # other lane has already taken runs after it.
        started = []

        def raising(q, work, i):
            started.append(i)
            raise ValueError(f"first overlap {q[0, 0]!r}")

        m = random_matrix(np.random.default_rng(3), 2)
        jobs = [(m[None], 19 * _BATCH + 7, 0, raising, 0), (m[None], 300, 1, _fold, (1,))]
        got = _lanes(jobs)
        assert 1 <= len(started) <= 2
        want = one_thread(jobs[0])
        assert isinstance(want, ValueError) and str(got[0]) == str(want)
        assert result_bits(got[1:]) == result_bits([one_thread(jobs[1])])

    def test_any_other_error_escapes(self):
        # An error that is not a ValueError is a fault, not a result: it is
        # raised once both lanes have stopped.
        def broken(q, work, i):
            if i == 1:
                raise RuntimeError("broken reduction")
            return _fold(q, work, (1,))

        jobs = [(np.eye(2)[None], 200 - i, i, broken, i) for i in range(6)]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="broken reduction"):
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
        # there are two of them. Each batch snapshots the heap when its step
        # is done, and the run's peak is the workspaces and a little more.
        source, first = inspect.getsourcelines(_lanes)
        line = first + next(i for i, text in enumerate(source) if "np.empty(" in text)
        snapshots = []

        def fold_then_snapshot(q, work, orders):
            parts = _fold(q, work, orders)
            snapshots.append(tracemalloc.take_snapshot())
            return parts

        rng = np.random.default_rng(6)
        jobs = [
            (random_matrix(rng, n)[None], 2 * _BATCH, n + i, fold_then_snapshot, (2,))
            for n in (2, 3, 4, 5)
            for i in range(5)
        ]
        tracemalloc.start()
        try:
            _lanes(jobs)
            # The snapshots themselves are traced, so the peak is taken on a
            # run without them.
            plain = [(ops, samples, seed, _fold, orders) for ops, samples, seed, _, orders in jobs]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _lanes(plain)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        workspace = _workspace_size(_BATCH, 5, 1) * 8
        assert len(snapshots) == 40
        for snapshot in snapshots:
            large = [t for t in snapshot.traces if t.size >= 1 << 20]
            where = {(t.traceback[0].filename, t.traceback[0].lineno) for t in large}
            assert where == {(inspect.getsourcefile(_lanes), line)}
            assert [t.size for t in large] == [workspace, workspace]
        assert peak <= 2 * workspace + (1 << 20)


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, set to two for the test
    and restored after it."""
    found = sampling._blas_threads()
    if found is None:
        pytest.skip("numpy's BLAS exports no thread-count control")
    get, put = found
    old = get()
    put(2)
    yield get
    put(old)


def blas_counts(get, seen):
    """A stream job's step that appends ``get()`` to ``seen`` at each batch
    and keeps no tally."""

    def step(q, work):
        seen.append(get())
        return []

    return step


class TestBlasCap:
    # While a run of stream jobs is open, OpenBLAS keeps to one thread;
    # after it, the count is what it was, however the run ended.
    def test_full_stream(self, blas_threads):
        seen = []
        _lanes([(np.eye(2)[None], 3 * _BATCH + 5, 1, blas_counts(blas_threads, seen))])
        assert seen == [1] * 4 and blas_threads() == 2

    def test_lane_runs_and_raising_jobs(self, blas_threads):
        seen = []

        def fold(q, work, order):
            seen.append(blas_threads())
            if order == 3:
                raise RuntimeError("broken reduction")
            return _fold(q, work, (order,))

        jobs = [(np.eye(2)[None], 300, i, fold, 1) for i in range(3)]
        _lanes(jobs)
        assert seen == [1, 1, 1] and blas_threads() == 2
        with pytest.raises(RuntimeError, match="broken reduction"):
            _lanes(jobs + [(np.eye(2)[None], 300, 3, fold, 3)])
        assert blas_threads() == 2
        with pytest.raises(ValueError, match="overflows"):
            mc_moment(1e200 * np.eye(2), 1, 3 * _BATCH, 0)
        assert blas_threads() == 2

    def test_a_count_already_at_one_is_left_alone(self, blas_threads):
        with sampling._one_blas_thread():
            assert mc_moment(REFERENCE, 1, 1000, 0).samples == 1000
            assert [t.count for (t,) in _lanes([_moment_job([REFERENCE], (1,), 1000, 0)] * 2)] == [1000] * 2
            assert blas_threads() == 1
        assert blas_threads() == 2

        # A run opened inside another, on either lane, finds the count at one
        # and leaves it to the outer run.
        seen = []

        def inner_run(q, work):
            inner = []
            _lanes([(np.eye(2)[None], 300, 2, blas_counts(blas_threads, inner))])
            seen.append((inner, blas_threads()))
            return []

        assert _lanes([(np.eye(2)[None], 2 * _BATCH, 1, inner_run)]) == [[]]
        assert seen == [([1], 1), ([1], 1)] and blas_threads() == 2

    def test_no_symbols_no_cap(self, blas_threads, monkeypatch):
        capped = mc_moment(REFERENCE, 2, 3000, 1)
        monkeypatch.setattr(sampling, "_blas_threads", lambda: None)
        seen = []
        _lanes([(np.eye(2)[None], 2 * _BATCH, 1, blas_counts(blas_threads, seen))])
        assert seen == [2, 2] and blas_threads() == 2
        assert mc_moment(REFERENCE, 2, 3000, 1) == capped


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
        states = haar_states(n, samples, seed)
        want = np.abs(reference_overlap(states, m)) ** 2
        assert np.abs(got - want).max() <= 1e-14 * want.max()

    # The zero row sits in the last batch: the only one of a one-batch
    # stream, or the second, which has a generator of its own.
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
        # then the second 2n normals the batch's generator draws after it.
        rng = batch_rng(seed, batch)
        z = rng.standard_normal((1000, 2 * n))
        rng.standard_normal(2 * n)
        z[row] = rng.standard_normal(2 * n)
        zero_row = ZeroRowRng(batch_rng(seed, batch), row, zero_redraws=1)
        v, r2 = _gaussian_rows(zero_row, np.empty((1000, 2 * n)), np.empty(1000))
        assert np.array_equal(bits(v), bits(z.view(np.complex128)))
        assert r2[row] == z[row] @ z[row]

        generator = np.random.Generator

        def zero_row_in_batch(bit_generator):
            rng = generator(bit_generator)
            if bit_generator.seed_seq.spawn_key == (0, batch):
                return ZeroRowRng(rng, row, zero_redraws=1)
            return rng

        monkeypatch.setattr(np.random, "Generator", zero_row_in_batch)
        f = fidelities(m, count, seed)
        monkeypatch.undo()
        before = [v for v, _ in reference_batches(n, batch * _BATCH, seed)]
        v = np.concatenate(before + [z.view(np.complex128)])
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
        got = overlaps(ops, samples, seed)
        assert got.shape == (3, samples)
        states = haar_states(n, samples, seed)
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

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
            mc_moment(np.eye(2), 1, 1000, seed=-1)

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
        binned = tally([x], 20, (0.2, 0.6))
        assert binned.histogram(seed=0).counts.sum() == x.size
        est = binned.estimate(seed=0)
        assert est.mean == want.mean()
        assert est.std_error == want.std(ddof=1) / np.sqrt(want.size)

    def test_a_signed_tally_scales_by_its_largest_magnitude(self):
        # The tally of -x is the tally of x negated, bit for bit, even where
        # x >= 0 spans the float range: a scale from the largest value of
        # -x, -1, would overflow the squares of its deviations.
        x = np.random.default_rng(6).uniform(0.5, 1.0, 1000) * 2.0**1020
        x[0] = 1.0
        plus, minus = (tally([y]).estimate(seed=0) for y in (x.copy(), -x))
        assert np.isfinite(plus.std_error) and plus.std_error > 0
        assert (minus.mean, minus.std_error) == (-plus.mean, plus.std_error)

    def test_merge_rescales_each_partial_by_a_power_of_two(self):
        # Batches whose scales lie 2^600 apart: the merge brings each partial
        # to the first batch's scale exactly, so the merged tally follows a
        # power-of-two scale of every batch bit for bit and matches a
        # two-pass estimate over all the values.
        rng = np.random.default_rng(7)
        xs = [rng.uniform(0.5, 1.0, 500) * 2.0**e for e in (0, -300, 300, 2)]
        merged = tally([x.copy() for x in xs])
        assert [merged.count, merged.exponent] == [2000, 0]
        est, x = merged.estimate(seed=0), np.concatenate(xs)
        assert abs(est.mean - x.mean()) <= 1e-15 * x.mean()
        assert abs(est.std_error - x.std(ddof=1) / np.sqrt(x.size)) <= 1e-14 * est.std_error
        scaled = tally([x * 2.0**-400 for x in xs]).estimate(seed=0)
        assert (est.mean, est.std_error) == (ldexp(scaled.mean, 400), ldexp(scaled.std_error, 400))

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
