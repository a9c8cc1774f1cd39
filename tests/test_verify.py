import numpy as np
import pytest

import gatefid.moments as moments_mod
from gatefid import qubit_dist, sampling
from gatefid.verify import (
    QUICK_SEED,
    check_conditional_oracle,
    check_distribution_moments,
    check_hermitian_collapse,
    check_mc_closed_form,
    check_sa_decomposition,
    reference_matrix,
    reference_spectrum,
    run_checks,
)


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
    names = {c["name"] for c in report["checks"]}
    assert names >= {
        "histogram_regeneration",
        "mc_batch",
        "conditional_oracle",
        "sa_decomposition",
    }


@pytest.mark.parametrize(
    "check,estimates", [(check_conditional_oracle, 3), (check_sa_decomposition, 1)]
)
def test_mc_checks_draw_from_the_one_stream(monkeypatch, check, estimates):
    # Every state these checks use comes from sampling.state_batches, so the
    # rows drawn through its generator are exactly samples per estimate.
    drawn = []
    gaussian_rows = sampling._gaussian_rows

    def counting(rng, z, r2):
        drawn.append(len(z))
        return gaussian_rows(rng, z, r2)

    monkeypatch.setattr(sampling, "_gaussian_rows", counting)
    samples = 5_000
    assert check(QUICK_SEED, samples).passed
    assert sum(drawn) == estimates * samples


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
    assert check_mc_closed_form(QUICK_SEED + 2, samples=20_000).passed


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
