import hashlib
import json
import math

import numpy as np
import pytest

import gatefid.moments as moments_mod
from gatefid import cli, qubit_dist, sampling
from gatefid.linalg import adjoint
from gatefid.moments import comparison_matrix
from gatefid.sampling import state_batches
from gatefid.verify import (
    _RATIO_BATCHES,
    QUICK_SEED,
    _conditional_job,
    _leaky_gate,
    _plan_conditional_oracle,
    _plan_sa_decomposition,
    _random_matrix,
    _ratio_estimate,
    _sa_job,
    check_distribution_moments,
    check_hermitian_collapse,
    reference_matrix,
    reference_spectrum,
    run_checks,
)
from conftest import reference_overlap

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


# sha256 of the report text `gatefid verify` prints, taken before every
# Monte-Carlo job of a level shared one longest-first lane schedule: how the
# streams are scheduled moves no bit of a report. The last digits of some
# details (the S/A rounding gap) follow the BLAS build's arithmetic.
REPORT_SHA256 = {
    ("quick", QUICK_SEED): "cec519ef51fab0f00428a1e7de38d55fd7dc2b01356bc03dc68dabd0a413874a",
    ("full", QUICK_SEED): "3e268e21cafbe7ccfe086ab29f6cc9944bd7a7cde99d2101bc68e51838021248",
    ("quick", 7): "ec57ef17595422ab5f76092e22feb93b87786781d3b02f2ea1b4e850bb9dfe12",
    ("full", 7): "7fccd4125b57f37aa5188527ab3827de4ffac86d99269ea9c786deb222f8fe48",
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
    "plan,estimates", [(_plan_conditional_oracle, 3), (_plan_sa_decomposition, 1)]
)
def test_mc_checks_draw_from_the_one_stream(monkeypatch, plan, estimates):
    # These checks take every overlap from the sampler's one kernel,
    # sampling._overlaps, whose states come from the one stream, so the rows
    # drawn through its generator are exactly samples per estimate.
    drawn = []
    gaussian_rows = sampling._gaussian_rows

    def counting(rng, z, r2):
        drawn.append(len(z))
        return gaussian_rows(rng, z, r2)

    monkeypatch.setattr(sampling, "_gaussian_rows", counting)
    samples = 5_000
    jobs, judge = plan(QUICK_SEED, samples)
    assert judge(*sampling._lanes(jobs)).passed
    assert sum(drawn) == estimates * samples


def hand_loop_conditional(g, samples, seed):
    """The conditional estimate as a hand loop over state_batches."""
    num_op = comparison_matrix(g.target, g.actual, g.subspace)
    den_op = comparison_matrix(g.actual, g.actual, g.subspace)
    per = samples // _RATIO_BATCHES
    sums = np.zeros((2, _RATIO_BATCHES))
    row = 0
    for v, r2 in state_batches(len(g.subspace), per * _RATIO_BATCHES, seed):
        run = (row + np.arange(len(v))) // per
        num = (np.abs(reference_overlap(v, num_op)) / r2) ** 2
        den = reference_overlap(v, den_op).real / r2
        sums[0] += np.bincount(run, weights=num, minlength=_RATIO_BATCHES)
        sums[1] += np.bincount(run, weights=den, minlength=_RATIO_BATCHES)
        row += len(v)
    ratios = sums[0] / sums[1]
    return float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(_RATIO_BATCHES))


def hand_loop_sa_decomposition(m, samples, seed):
    """The S/A split as a hand loop over state_batches."""
    sym, anti = (m + adjoint(m)) / 2.0, (m - adjoint(m)) / 2.0
    totals, gap = np.zeros(4), 0.0
    for v, r2 in state_batches(m.shape[0], samples, seed):
        q_m, q_s, q_a = (np.abs(reference_overlap(v, a)) / r2 for a in (m, sym, anti))
        f = np.stack([q_m**4, q_s**4, q_a**4, (q_s**2) * (q_a**2)])
        totals += f.sum(axis=1)
        gap = max(gap, float(np.abs(f[0] - (f[1] + f[2] + 2 * f[3])).max()))
    return totals / samples, gap


@pytest.mark.parametrize("seed", [0, QUICK_SEED + 5])
def test_mc_checks_match_a_hand_loop_over_the_stream_bitwise(seed):
    # The kernel keeps the arithmetic of a loop over the stream's rows, so
    # the estimates keep their bits; the acceptance operator is positive
    # semidefinite, so the modulus of its overlap is its real part.
    samples = 3 * sampling._BATCH + 101
    for alpha in (0.0, 0.5, 1.0):
        g = _leaky_gate(alpha)
        (sums,) = sampling._lanes([_conditional_job(g, samples, seed)])
        assert _ratio_estimate(sums) == hand_loop_conditional(g, samples, seed)
    m = _random_matrix(np.random.default_rng(seed), 3)
    ((got, got_gap),) = sampling._lanes([_sa_job(m, samples, seed)])
    want, want_gap = hand_loop_sa_decomposition(m, samples, seed)
    assert got.tobytes() == want.tobytes() and got_gap == want_gap


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


def test_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_checks("paranoid")


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
