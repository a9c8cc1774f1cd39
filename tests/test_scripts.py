"""Smoke tests: the scripts under scripts/ run end to end in a fresh interpreter."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gatefid
from gatefid import avg_fidelity, fourth_moment_general
from gatefid.verify import reference_matrix

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    src = str(Path(gatefid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_pdf_vs_histogram(tmp_path):
    argv = ["--samples", "20000", "--bins", "20", "--grid", "64", "--outdir", str(tmp_path)]
    proc = run_script("pdf_vs_histogram.py", *argv)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert json.loads(proc.stdout) == summary
    m = reference_matrix()
    assert summary["case"] == "two_piece"
    assert summary["f0"] == pytest.approx(0.1329208978730849, rel=1e-14)
    assert summary["support"] == [summary["f0"], pytest.approx(0.64, rel=1e-14)]
    assert summary["mean"] == pytest.approx(avg_fidelity(m), rel=1e-14)
    assert summary["second_moment"] == pytest.approx(fourth_moment_general(m), rel=1e-14)
    assert 0.5 < summary["chi_square_per_dof"] < 1.5
    assert (summary["samples"], summary["seed"]) == (20000, 2026)
    assert len((tmp_path / "density.csv").read_text().splitlines()) == 65
    assert len((tmp_path / "histogram.csv").read_text().splitlines()) == 21


def test_tune_gates():
    proc = run_script("tune_gates.py")
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (ROOT / "problems").glob("*.json"))
    parts = re.split(r"^== (.+) ==$", proc.stdout, flags=re.M)
    assert parts[0] == "" and parts[1::2] == names
    for block in parts[2::2]:
        result = json.loads(block)
        assert result["converged"] is True
        assert result["evaluations"] > 0
