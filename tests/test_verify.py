import hashlib
import json
import math
import re

import numpy as np
import pytest

import gatefid.moments as moments_mod
from gatefid import cli, qubit_dist, sampling
from gatefid.linalg import ConfigError
from gatefid.moments import comparison_matrix
from gatefid.verify import (
    _RATIO_BATCHES,
    QUICK_SEED,
    _conditional_job,
    _leaky_gate,
    _plan_conditional_oracle,
    _plan_mc_batch,
    _plan_mc_closed_form,
    _plan_sa_decomposition,
    _ratio_estimate,
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


# sha256 of the report text `gatefid verify` prints, taken once each check
# drew one stream per dimension for all of its maps (and its own seed for
# each), after the estimates were shown to equal their lone streams' bit for
# bit. How the streams are scheduled moves no bit of a report. The last
# digits of some details (the S/A rounding gap) follow the BLAS build's
# arithmetic. Taken with numpy 2.4.6: NEP 19 does not pin a Generator's
# streams across numpy versions, so another version may draw other states.
REPORT_SHA256 = {
    ("quick", QUICK_SEED): "2c4617d20c14e711cebcff345c614f32408371fa4a3e2cb1d0759df6ad2e047d",
    ("full", QUICK_SEED): "5348ef6f03410ff2171c6627e0da34da1e7b15713e91106c79f59920e31cedb5",
    ("quick", 7): "19d85f44733790ebccd8d090f6d892c58b79aaa6b27cf4ccea8679ae81ca83a0",
    ("full", 7): "7fa54c90a6efd66699fef8ca6e38c785f3587368e0b138bf0f084f504afa27b8",
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
    jobs, judge = plan(QUICK_SEED, samples)
    assert judge(*sampling._lanes(jobs)).passed
    assert sum(drawn) == streams * samples


def hand_loop_conditional(g, samples, seed):
    """The conditional estimate as a hand loop over the reference stream."""
    num_op = comparison_matrix(g.target, g.actual, g.subspace)
    den_op = comparison_matrix(g.actual, g.actual, g.subspace)
    per = samples // _RATIO_BATCHES
    sums = np.zeros((2, _RATIO_BATCHES))
    row = 0
    for v, r2 in reference_batches(len(g.subspace), per * _RATIO_BATCHES, seed):
        run = (row + np.arange(len(v))) // per
        num = (np.abs(reference_overlap(v, num_op)) / r2) ** 2
        den = reference_overlap(v, den_op).real / r2
        sums[0] += np.bincount(run, weights=num, minlength=_RATIO_BATCHES)
        sums[1] += np.bincount(run, weights=den, minlength=_RATIO_BATCHES)
        row += len(v)
    ratios = sums[0] / sums[1]
    return float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(_RATIO_BATCHES))


@pytest.mark.parametrize("seed", [0, QUICK_SEED + 5])
def test_mc_checks_match_a_hand_loop_over_the_stream_bitwise(seed):
    # The kernel keeps the arithmetic of a loop over the stream's rows, so
    # the estimates keep their bits; the acceptance operator is positive
    # semidefinite, so the modulus of its overlap is its real part.
    samples = 3 * sampling._BATCH + 101
    for alpha in (0.0, 0.5, 1.0):
        g = _leaky_gate(alpha)
        (sums,) = sampling._lanes([_conditional_job([g], samples, seed)])
        assert _ratio_estimate(sums) == hand_loop_conditional(g, samples, seed)


@pytest.mark.parametrize(
    "plan,args,estimates",
    [(_plan_mc_closed_form, (), 8), (_plan_mc_batch, (5,), 20), (_plan_sa_decomposition, (), 3)],
)
def test_shared_stream_estimates_are_mc_moment(plan, args, estimates):
    # Each map and order of a stream shared by a dimension gets the estimate
    # of its own lone stream at that seed, bit for bit.
    samples = sampling._BATCH + 101
    jobs, _ = plan(QUICK_SEED, samples, *args)
    got, want = [], []
    for (ops, _, seed, _, orders), tallies in zip(jobs, sampling._lanes(jobs)):
        got += [t.estimate(seed) for t in tallies]
        want += [sampling.mc_moment(m, order, samples, seed) for m in ops for order in orders]
    assert len(got) == estimates and got == want


def test_each_gate_of_the_shared_stream_keeps_its_own_bits():
    samples = 3 * sampling._BATCH + 101
    jobs, _ = _plan_conditional_oracle(QUICK_SEED, samples)
    ((_, _, seed, *_),) = jobs
    (sums,) = sampling._lanes(jobs)
    assert sums.shape == (6, _RATIO_BATCHES)
    for i, alpha in enumerate((0.0, 0.5, 1.0)):
        (alone,) = sampling._lanes([_conditional_job([_leaky_gate(alpha)], samples, seed)])
        assert sums[2 * i : 2 * i + 2].tobytes() == alone.tobytes()


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


def test_perfect_gate_one_percent_off_fails_with_a_finite_z(monkeypatch):
    # At alpha = 1 every run's ratio is exactly 1, so the standard error is
    # 0; a closed form 1% high then fails with a finite z in a short detail.
    # The alpha = 0 gate, whose standard error is not 0, misses on its own.
    true_fn = moments_mod.conditional_fidelity
    monkeypatch.setattr(moments_mod, "conditional_fidelity", lambda g: 1.01 * true_fn(g))
    jobs, judge = _plan_conditional_oracle(QUICK_SEED + 5, 100_000)
    (sums,) = sampling._lanes(jobs)
    assert _ratio_estimate(sums[4:6]) == (1.0, 0.0)
    est, se = _ratio_estimate(sums[0:2])
    assert se > 0 and abs(est - 1.01 * (2 / 3)) > 4 * se
    result = judge(sums)
    assert not result.passed and len(result.detail) < 40
    z = float(re.fullmatch(r"max \|z\| = (\S+) sigma", result.detail)[1])
    assert 4 < z < math.inf


def test_perfect_gate_one_ulp_off_passes(monkeypatch):
    # An estimate with no spread must match its closed form to 1e-12
    # relative, not bit for bit.
    true_fn = moments_mod.conditional_fidelity
    monkeypatch.setattr(moments_mod, "conditional_fidelity", lambda g: math.nextafter(true_fn(g), 2.0))
    jobs, judge = _plan_conditional_oracle(QUICK_SEED + 5, 100_000)
    (sums,) = sampling._lanes(jobs)
    assert _ratio_estimate(sums[4:6]) == (1.0, 0.0)
    assert judge(sums).passed


def test_a_check_that_raises_is_reported_failed(monkeypatch, capsys):
    # With the sampled f of the histogram's stream scaled by 1 - 1e-4, the
    # lowest draws fall below the histogram range and the tally raises: that
    # check fails (exit 3) and the other nine still report, each with the
    # detail of a run with no fault. The kernel the lanes use scales the rows
    # past the first 100,000 of a stream, and only the histogram's stream of
    # 10^6 rows is that long.
    clean = {c["name"]: c["detail"] for c in run_checks("full")["checks"]}
    kernel = sampling._kernel

    def scaled(ops, batches, buffers):
        rows = 0
        for q in kernel(ops, batches, buffers):
            rows += q.shape[1]
            if rows > 100_000:
                q *= math.sqrt(1 - 1e-4)
            yield q

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
    jobs, judge = _plan_mc_batch(QUICK_SEED + 4, 20_000, 5)
    result = judge(*sampling._lanes(jobs))
    assert result.detail == "19/20 within 4 sigma" and not result.passed


def test_worst_propagates_nan():
    assert _worst([]) == 0.0 and _worst([0.5, 2.0, 1.0]) == 2.0
    assert all(math.isnan(_worst(gaps)) for gaps in ([math.nan, 1.0], [1.0, math.nan], iter([0.0, math.nan])))


def test_a_nan_batch_of_the_sa_stream_raises():
    # A NaN in the second batch of the S/A stream's overlaps raises in the
    # shared fold, which fails sa_decomposition with the error's text.
    batches = [np.full((3, 8), 0.5), np.full((3, 8), math.nan)]
    with pytest.raises(ValueError, match="sampled fidelity overflows"):
        sampling._fold(iter(batches), (1,))


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
    assert not check_hermitian_collapse(QUICK_SEED).passed
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
    jobs, judge = _plan_conditional_oracle(QUICK_SEED + 5, 100_000)
    assert not judge(*sampling._lanes(jobs[:1])).passed


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

    assert check_distribution_moments(QUICK_SEED + 1).passed
    monkeypatch.setattr(qubit_dist.FidelityDistribution, "pdf", scaled)
    result = check_distribution_moments(QUICK_SEED + 1)
    assert not result.passed
    assert "max moment gap" in result.detail
