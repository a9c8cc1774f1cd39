"""Tuner trajectories pinned bit for bit at the values of the array form.

The Nelder-Mead bookkeeping in ``optimize`` runs on tuples of Python floats;
it used to run on numpy arrays (``np.argsort``, ``np.mean``, ``np.clip``).
Both do the same IEEE operations in the same order, so every probe point,
every objective value and the result must be identical, not merely close.
``PINNED`` holds the array form's ``best_params``, ``best_value``,
``evaluations`` and ``converged`` at 17 significant digits for each shipped
problem under the three objectives (taken with numpy 2.4 on x86-64), and
``TRACE_SHA256`` the digest of its ``--trace-out`` CSV for one problem per
family. The ``min_support`` values were retaken when ``eig2_normal`` moved to
the Bloch form, which rounds the eigenvalues behind the support floor
differently; the other objectives never call it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gatefid.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
OBJECTIVES = {
    "mean": {"kind": "mean"},
    "mean_minus_k_sigma": {"kind": "mean_minus_k_sigma", "k": 1.0},
    "min_support": {"kind": "min_support"},
}

# (problem, objective): (best_params, best_value, evaluations, converged)
PINNED = {
    ("leaky_gate", "mean"): ((1.0, -5.0092838998893056e-07), 0.99999999999995826, 74, True),
    ("leaky_gate", "mean_minus_k_sigma"): ((1.0, -3.4939777454488758e-07), 0.99999999999997957, 81, True),
    ("leaky_gate", "min_support"): ((1.0, -6.6658129008671351e-07), 0.9999999999998892, 72, True),
    ("phase_gate", "mean"): ((6.4244466318528581e-07,), 0.99999999999993117, 44, True),
    ("phase_gate", "mean_minus_k_sigma"): ((8.1325852290331431e-06,), 0.99999999998897682, 62, True),
    ("phase_gate", "min_support"): ((6.4244466318528581e-07,), 0.99999999999989675, 44, True),
    ("polar_eig_gate", "mean"): ((0.79999999999999982, 0.39269720644413364), 0.56333333333300495, 73, True),
    ("polar_eig_gate", "mean_minus_k_sigma"): ((0.80000000000000004, 0.39270005272497832), 0.52002564861614653, 72, True),
    ("polar_eig_gate", "min_support"): ((0.74249999999999972, 0.61504440784612413), 0.48999999999999994, 21, True),
    ("two_phase_gate", "mean"): ((2.9432286024691114, -2.5545581436245), 0.99999999999997369, 59, True),
    ("two_phase_gate", "mean_minus_k_sigma"): ((2.9143164502575729, -2.5834712252038914), 0.99999999999995293, 70, True),
    ("two_phase_gate", "min_support"): ((2.9432286024691114, -2.5545581436245), 0.9999999999999607, 61, True),
}

# One problem per family: (problem, objective): sha256 of the trace CSV.
TRACE_SHA256 = {
    ("leaky_gate", "mean_minus_k_sigma"): "f59ec2a60784570db5860f06837d4fdd10e45d9dc21baf14fa330ae2b6bf0434",
    ("phase_gate", "min_support"): "67c1d32086153522330865598766dc8e7941d844d93c31272063b008647aef83",
    ("polar_eig_gate", "mean"): "6b272efc1c0b5ffb94c4eb8db3bbe3b7c9a26997f0264bebae35addea023c0ab",
    ("two_phase_gate", "min_support"): "8265b20a59850ba22af65d856c5bb9ea06d41b615447bf68176e52bbe9b764ff",
}


def tune(tmp_path, capsys, problem, objective, *extra):
    base = json.loads((PROBLEMS / f"{problem}.json").read_text())
    path = tmp_path / f"{problem}-{objective}.json"
    path.write_text(json.dumps(dict(base, objective=OBJECTIVES[objective])))
    code = main(["optimize", str(path), *extra])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_every_shipped_problem_is_pinned():
    stems = sorted(p.stem for p in PROBLEMS.glob("*.json"))
    assert sorted({name for name, _ in PINNED}) == stems
    assert len(PINNED) == len(stems) * len(OBJECTIVES)


@pytest.mark.parametrize("problem,objective", sorted(PINNED))
def test_result_bit_for_bit(tmp_path, capsys, problem, objective):
    params, value, evaluations, converged = PINNED[problem, objective]
    got = tune(tmp_path, capsys, problem, objective)
    assert tuple(got["best_params"]) == params
    assert got["best_value"] == value
    assert got["evaluations"] == evaluations
    assert got["converged"] is converged


@pytest.mark.parametrize("problem,objective", sorted(TRACE_SHA256))
def test_trace_csv_byte_identical(tmp_path, capsys, problem, objective):
    trace = tmp_path / "trace.csv"
    got = tune(tmp_path, capsys, problem, objective, "--trace-out", str(trace))
    data = trace.read_bytes()
    assert data.count(b"\n") == got["evaluations"] + 1
    assert hashlib.sha256(data).hexdigest() == TRACE_SHA256[problem, objective]
