import numpy as np
import pytest

import gatefid.moments as moments_mod
from gatefid import qubit_dist
from gatefid.verify import (
    QUICK_SEED,
    check_distribution_moments,
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
