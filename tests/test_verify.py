import hashlib
import json
import math
import re
from functools import reduce

import numpy as np
import pytest

import gatefid.moments as moments_mod
from gatefid import cli, qubit_dist, sampling
from gatefid.linalg import ConfigError
from gatefid.moments import comparison_matrix
from gatefid.verify import (
    QUICK_SEED,
    _conditional_job,
    _leaky_gate,
    _plan_conditional_oracle,
    _plan_mc_batch,
    _plan_mc_closed_form,
    _plan_sa_decomposition,
    _ratio,
    _worst,
    check_distribution_moments,
    check_hermitian_collapse,
    reference_matrix,
    reference_spectrum,
    run_checks,
)
from conftest import reference_batches, reference_overlap

FULL_CHECKS = [
    "monomial_patterns",
    "monomial_completeness",
    "hermitian_collapse",
    "distribution_moments",
    "worked_values",
    "mc_closed_form",
    "histogram_regeneration",
    "mc_batch",
    "conditional_oracle",
    "sa_decomposition",
]


def key(name, seed=QUICK_SEED):
    """The key of the check ``name`` in a run at ``seed``: its maps' seed,
    and with a dimension appended, its streams'."""
    return seed, FULL_CHECKS.index(name)


# sha256 of the report text `gatefid verify` prints, taken once check k of a
# run at a seed drew its maps from default_rng((seed, k)) and its stream in
# dimension n from the seed (seed, k, n), batch j of that stream from SFC64
# seeded by the j-th child of the seed's first SeedSequence child, with
# conditional_oracle's streaming ratio estimate, after the estimates were
# shown to equal their lone streams' and a one-thread pass's bit for bit.
# How the streams and their batches are scheduled moves no bit of a report. The
# last digits of some details (the S/A rounding gap) follow the BLAS build's
# arithmetic. Taken with numpy 2.4.6: NEP 19 does not pin a Generator's
# streams across numpy versions, so another version may draw other states.
REPORT_SHA256 = {
    ("quick", QUICK_SEED): "93ac88e32b3d939510ef3bc674b9b143f3b26f878c591743939cd2c24c944dd8",
    ("full", QUICK_SEED): "4f3ee464af772bcf29af26a80b0d11ef66972e3e8aba6a91baf636ee62569f96",
    ("quick", 7): "73afcc2ae75b0f71e8c7a3bdab4d6afd459cada85950443e069d760be3f9a547",
    ("full", 7): "376c659f82761efa68c0686555f434582457dc3a6a1a915182ab88f3c5d4479a",
}


@pytest.mark.parametrize("level,seed", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(level, seed):
    text = cli._dumps(run_checks(level, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[level, seed]


def test_reference_spectrum_values():
    s = reference_spectrum()
    assert abs(s.lambda0) == pytest.approx(0.7)
    assert abs(s.lambda1) == pytest.approx(0.8)
    m = reference_matrix()
    assert np.array_equal(np.diagonal(m), [s.lambda0, s.lambda1])


def test_quick_level_passes():
    report = run_checks("quick")
    assert report["passed"]
    assert report["level"] == "quick"
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "monomial_patterns",
        "monomial_completeness",
        "hermitian_collapse",
        "distribution_moments",
        "worked_values",
        "mc_closed_form",
    ]


def test_full_level_passes():
    report = run_checks("full")
    assert report["passed"]
    assert [c["name"] for c in report["checks"]] == FULL_CHECKS


@pytest.mark.parametrize(
    "plan,streams", [(_plan_conditional_oracle, 1), (_plan_sa_decomposition, 1)]
)
def test_mc_checks_draw_from_the_one_stream(monkeypatch, plan, streams):
    # These checks take every overlap from the sampler's one kernel, run by
    # sampling._lanes, whose states come from the one stream, so the rows
    # drawn through its generator are exactly samples per stream; the three
    # gates of the conditional check share one.
    drawn = []
    gaussian_rows = sampling._gaussian_rows

    def counting(rng, z, r2):
        drawn.append(len(z))
        return gaussian_rows(rng, z, r2)

    monkeypatch.setattr(sampling, "_gaussian_rows", counting)
    samples = 5_000
    jobs, judge = plan((QUICK_SEED, 0), samples)
    assert judge(*sampling._lanes(jobs)).passed
    assert sum(drawn) == streams * samples


def hand_loop_conditional(g, samples, seed):
    """The conditional estimate as a hand loop over the reference stream:
    tallies of f, of the acceptance a and of f - a, then the ratio of the
    means and its delta-method standard error."""
    num_op = comparison_matrix(g.target, g.actual, g.subspace)
    den_op = comparison_matrix(g.actual, g.actual, g.subspace)
    parts = []
    for v, r2 in reference_batches(len(g.subspace), samples, seed):
        f = (np.abs(reference_overlap(v, num_op)) / r2) ** 2
        a = reference_overlap(v, den_op).real / r2
        parts.append([sampling._Tally.partial(x, x.min(), x.max(), np.empty(x.size)) for x in (f, a, f - a)])
    f, a, d = (reduce(sampling._Tally.merge, column).estimate(seed) for column in zip(*parts))
    r = f.mean / a.mean
    var = (1 - r) * f.std_error**2 + r * (r - 1) * a.std_error**2 + r * d.std_error**2
    return r, math.sqrt(max(var, 0.0)) / a.mean


@pytest.mark.parametrize("seed", [0, QUICK_SEED + 5, pytest.param(key("conditional_oracle") + (2,), id="key")])
def test_mc_checks_match_a_hand_loop_over_the_stream_bitwise(seed):
    # The kernel keeps the arithmetic of a loop over the stream's rows, so
    # the estimates keep their bits; the acceptance operator is positive
    # semidefinite, so the modulus of its overlap is its real part.
    samples = 3 * sampling._BATCH + 101
    for alpha in (0.0, 0.5, 1.0):
        g = _leaky_gate(alpha)
        (tallies,) = sampling._lanes([_conditional_job([g], samples, seed)])
        est = _ratio(tallies, seed)
        assert (est.mean, est.std_error) == hand_loop_conditional(g, samples, seed)


@pytest.mark.parametrize(
    "plan,args,estimates",
    [(_plan_mc_closed_form, (), 8), (_plan_mc_batch, (5,), 20), (_plan_sa_decomposition, (), 3)],
)
def test_shared_stream_estimates_are_mc_moment(plan, args, estimates):
    # Each map and order of a stream shared by a dimension gets the estimate
    # of its own lone stream at that seed, bit for bit.
    samples = sampling._BATCH + 101
    jobs, _ = plan((QUICK_SEED, 0), samples, *args)
    got, want = [], []
    for (ops, _, seed, _, orders), tallies in zip(jobs, sampling._lanes(jobs)):
        got += [t.estimate(seed) for t in tallies]
        want += [sampling.mc_moment(m, order, samples, seed) for m in ops for order in orders]
    assert len(got) == estimates and got == want


def test_each_gate_of_the_shared_stream_keeps_its_own_bits():
    samples = 3 * sampling._BATCH + 101
    jobs, _ = _plan_conditional_oracle(key("conditional_oracle"), samples)
    ((_, _, seed, *_),) = jobs
    (tallies,) = sampling._lanes(jobs)
    assert len(tallies) == 9
    for i, alpha in enumerate((0.0, 0.5, 1.0)):
        (alone,) = sampling._lanes([_conditional_job([_leaky_gate(alpha)], samples, seed)])
        bits = [[(t.count, t.mean, t.m2, t.exponent) for t in ts] for ts in (tallies[3 * i : 3 * i + 3], alone)]
        assert bits[0] == bits[1]


def test_rows_drawn_per_level(monkeypatch):
    # One stream per check and dimension: 3 of 20,000 rows at quick; at full
    # also the 10^6-row histogram, 4 mc_batch streams and the conditional
    # and S/A streams of 100,000 rows each.
    drawn = []
    gaussian_rows = sampling._gaussian_rows

    def counting(rng, z, r2):
        drawn.append(len(z))
        return gaussian_rows(rng, z, r2)

    monkeypatch.setattr(sampling, "_gaussian_rows", counting)
    run_checks("quick")
    assert sum(drawn) == 60_000
    drawn.clear()
    run_checks("full")
    assert sum(drawn) == 1_660_000


@pytest.mark.parametrize("seed", [0, 7, QUICK_SEED])
def test_every_stream_of_a_level_has_its_own_seed(monkeypatch, seed):
    runs = []
    lanes = sampling._lanes

    def recording(jobs):
        runs.append([job[2] for job in jobs])
        return lanes(jobs)

    monkeypatch.setattr(sampling, "_lanes", recording)
    run_checks("quick", seed)
    run_checks("full", seed)
    assert [len(seeds) for seeds in runs] == [3, 10]
    assert all(len(set(seeds)) == len(seeds) for seeds in runs)


def test_no_stream_or_map_generator_is_shared_across_seeds(monkeypatch):
    # Every generator a full run builds, by its initial state: one for each
    # check's maps and one for each of its streams, 15 in all, each of one
    # (seed, check, dimension) triple. None may recur over 40 seeds, so runs
    # at nearby seeds are independent; seeds offset by small integers per
    # check would give one run's stream to another's. The lanes only start
    # each stream (a plan's jobs are built as in a real run), so the judges
    # fail and the deterministic checks run as usual.
    states = []
    default_rng, gaussian_rows = np.random.default_rng, sampling._gaussian_rows

    def recording(seed=None):
        rng = default_rng(seed)
        states.append(repr(rng.bit_generator.state["state"]))
        return rng

    def recording_rows(rng, z, r2):
        states.append(repr(rng.bit_generator.state["state"]))
        return gaussian_rows(rng, z, r2)

    def started(jobs):
        for _, _, seed, *_ in jobs:  # each stream's first batch, cut to one row
            sampling._draws(1, seed, 0, np.empty((1, 2)), np.empty(1))
        return [ValueError("not drawn")] * len(jobs)

    monkeypatch.setattr(np.random, "default_rng", recording)
    monkeypatch.setattr(sampling, "_gaussian_rows", recording_rows)
    monkeypatch.setattr(sampling, "_lanes", started)
    for seed in range(40):
        run_checks("full", seed)
    assert len(states) == 40 * 15
    assert len(set(states)) == len(states)


def test_perfect_gate_one_percent_off_fails_with_a_finite_z(monkeypatch):
    # At alpha = 1 the ratio is exactly 1 and its standard error is rounding
    # (f and a differ in the last bits of some rows); a closed form 1% high
    # then fails with a finite z in a short detail. The alpha = 0 gate,
    # whose standard error is a sampling error, misses on its own.
    true_fn = moments_mod.conditional_fidelity
    monkeypatch.setattr(moments_mod, "conditional_fidelity", lambda g: 1.01 * true_fn(g))
    jobs, judge = _plan_conditional_oracle(key("conditional_oracle"), 100_000)
    (tallies,) = sampling._lanes(jobs)
    perfect = _ratio(tallies[6:9], 0)
    assert perfect.mean == 1.0 and perfect.std_error < 1e-15
    est = _ratio(tallies[0:3], 0)
    assert est.std_error > 1e-4 and abs(est.mean - 1.01 * (2 / 3)) > 4 * est.std_error
    result = judge(tallies)
    assert not result.passed and len(result.detail) < 40
    z = float(re.fullmatch(r"max \|z\| = (\S+) sigma", result.detail)[1])
    assert 4 < z < math.inf


def test_perfect_gate_one_ulp_off_passes(monkeypatch):
    # An estimate with no spread must match its closed form to 1e-12
    # relative, not bit for bit.
    true_fn = moments_mod.conditional_fidelity
    monkeypatch.setattr(moments_mod, "conditional_fidelity", lambda g: math.nextafter(true_fn(g), 2.0))
    jobs, judge = _plan_conditional_oracle(key("conditional_oracle"), 100_000)
    (tallies,) = sampling._lanes(jobs)
    assert _ratio(tallies[6:9], 0).mean == 1.0
    assert judge(tallies).passed


def test_a_check_that_raises_is_reported_failed(monkeypatch, capsys):
    # With the sampled f of the histogram's stream scaled by 1 - 1e-4, the
    # lowest draws fall below the histogram range and the tally raises: that
    # check fails (exit 3) and the other nine still report, each with the
    # detail of a run with no fault. The kernel the lanes use scales the
    # overlaps of the reference map alone, and only the histogram's stream
    # evaluates that map alone.
    clean = {c["name"]: c["detail"] for c in run_checks("full")["checks"]}
    kernel = sampling._kernel

    def scaled(ops, v, r2, buffers):
        q = kernel(ops, v, r2, buffers)
        if len(ops) == 1 and np.array_equal(ops[0], reference_matrix()):
            q *= math.sqrt(1 - 1e-4)
        return q

    monkeypatch.setattr(sampling, "_kernel", scaled)
    assert cli.main(["verify", "--level", "full"]) == cli.EXIT_VERIFY
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == FULL_CHECKS
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert "leaves the histogram range" in failed["histogram_regeneration"]
    assert not report["passed"]
    others = {c["name"]: c["detail"] for c in report["checks"] if c["name"] != "histogram_regeneration"}
    assert others == {name: detail for name, detail in clean.items() if name in others}
    assert len(others) == 9


def test_a_plan_that_raises_fails_only_its_check(monkeypatch):
    # The histogram's plan raises before any draw: that check fails with the
    # error's text, its job never reaches the lanes, and the other nine
    # report as in a run with no fault.
    clean = run_checks("full")["checks"]

    def no_job(*args):
        raise ValueError("no histogram job")

    monkeypatch.setattr(sampling, "_sample_job", no_job)
    checks = run_checks("full")["checks"]
    assert [c for c in checks if not c["passed"]] == [
        {"name": "histogram_regeneration", "passed": False, "detail": "no histogram job"}
    ]
    assert [c for c in checks if c["passed"]] == [c for c in clean if c["name"] != "histogram_regeneration"]


# The checks that call each closed form, at quick and the ones full adds.
NAN_FAILS = {
    "fourth_moment_general": (
        {"hermitian_collapse", "distribution_moments", "mc_closed_form"},
        {"mc_batch"},
    ),
    "avg_fidelity": ({"distribution_moments", "worked_values", "mc_closed_form"}, {"conditional_oracle"}),
    "conditional_fidelity": ({"worked_values"}, {"conditional_oracle"}),
    "kraus_avg_fidelity": ({"worked_values"}, set()),
}


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize("name", sorted(NAN_FAILS))
def test_a_closed_form_that_returns_nan_fails_its_checks(monkeypatch, name, level):
    # max(worst, gap) keeps worst when gap is NaN, so every check that calls
    # a closed form returning NaN passed; each one now fails, and only those.
    monkeypatch.setattr(moments_mod, name, lambda *args: math.nan)
    quick, full = NAN_FAILS[name]
    failed = {c["name"] for c in run_checks(level)["checks"] if not c["passed"]}
    assert failed == (quick | full if level == "full" else quick)


def test_one_nan_estimate_fails_mc_batch(monkeypatch):
    # mc_batch forgives one miss of 20 at |z| > 4; a NaN z is a fault, not
    # that miss.
    true_fn = moments_mod.fourth_moment_general
    calls = []

    def first_nan(m):
        calls.append(m)
        return math.nan if len(calls) == 1 else true_fn(m)

    monkeypatch.setattr(moments_mod, "fourth_moment_general", first_nan)
    jobs, judge = _plan_mc_batch(key("mc_batch"), 20_000, 5)
    result = judge(*sampling._lanes(jobs))
    assert result.detail == "19/20 within 4 sigma" and not result.passed


def test_worst_propagates_nan():
    assert _worst([]) == 0.0 and _worst([0.5, 2.0, 1.0]) == 2.0
    assert all(math.isnan(_worst(gaps)) for gaps in ([math.nan, 1.0], [1.0, math.nan], iter([0.0, math.nan])))


def test_a_nan_batch_of_the_sa_stream_raises():
    # A NaN in the second batch of the S/A stream's overlaps raises in the
    # shared fold, which fails sa_decomposition with the error's text.
    work = np.empty(8)
    assert len(sampling._fold(np.full((3, 8), 0.5), work, (1,))) == 3
    with pytest.raises(ValueError, match="sampled fidelity overflows"):
        sampling._fold(np.full((3, 8), math.nan), work, (1,))


def test_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_checks("paranoid")


def test_rejects_a_negative_seed():
    # Refused before any check runs, not reported as a failed check.
    with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
        run_checks("quick", -1)


def test_corrupted_fourth_moment_detected(monkeypatch):
    true_fn = moments_mod.fourth_moment_general
    monkeypatch.setattr(
        moments_mod, "fourth_moment_general", lambda m: 1.2 * true_fn(m)
    )
    report = run_checks("quick")
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "mc_closed_form" in failed


def test_fourth_moment_off_by_1e_11_detected(monkeypatch):
    # A relative error of 1e-11 hides in the Monte-Carlo noise of
    # mc_closed_form; the eigenvalue expansion of hermitian_collapse sees it.
    true_fn = moments_mod.fourth_moment_general
    monkeypatch.setattr(
        moments_mod, "fourth_moment_general", lambda m: (1 + 1e-11) * true_fn(m)
    )
    assert not check_hermitian_collapse(key("hermitian_collapse")).passed
    checks = {c["name"]: c["passed"] for c in run_checks("quick")["checks"]}
    assert not checks["hermitian_collapse"] and checks["mc_closed_form"]


def test_conditional_fidelity_off_by_one_percent_detected(monkeypatch):
    # The Monte-Carlo oracle catches a closed form 1% high, and at alpha = 0
    # on its own too (about 7 sigma), where the standard error is not zero
    # as it is for the perfect gate; worked_values checks the same closed
    # form. The other Monte-Carlo checks still pass.
    true_fn = moments_mod.conditional_fidelity
    monkeypatch.setattr(moments_mod, "conditional_fidelity", lambda g: 1.01 * true_fn(g))
    failed = {c["name"] for c in run_checks("full")["checks"] if not c["passed"]}
    assert failed == {"conditional_oracle", "worked_values"}
    jobs, judge = _plan_conditional_oracle(key("conditional_oracle"), 100_000)
    assert not judge(*sampling._lanes(jobs)).passed


@pytest.mark.parametrize("piece", ["lower", "upper"])
def test_pdf_piece_scaled_by_two_detected(monkeypatch, piece):
    # The density's mass, integrated piece by piece, must match the cdf:
    # doubling the pdf on [f0, |l0|^2) (two-piece laws only) or on
    # [|l0|^2, |l1|^2] breaks that while every moment stays exact.
    true_pdf = qubit_dist.FidelityDistribution.pdf

    def scaled(self, f):
        out = true_pdf(self, f)
        f = np.asarray(f, dtype=float)
        return np.where((f < self.f_l0) == (piece == "lower"), 2.0 * out, out)

    assert check_distribution_moments(key("distribution_moments")).passed
    monkeypatch.setattr(qubit_dist.FidelityDistribution, "pdf", scaled)
    result = check_distribution_moments(key("distribution_moments"))
    assert not result.passed
    assert "max moment gap" in result.detail
