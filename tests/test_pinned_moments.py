"""Closed-form moments pinned at the values of the explicit-product formulas.

Each trace of ``avg_fidelity``, ``fourth_moment_general`` and the Kraus mean
used to be ``np.trace`` of its own matrix product; they are now Frobenius
inner products of two products. ``PINNED`` holds the values of the earlier
formulas at 17 significant digits on the seeded maps of :func:`cases`:
generic maps, near-unitary maps ``(1 - s) exp(i delta H)`` for delta from
1e-8 to 1e-1, leaky-subspace gates and Kraus maps, n = 2..5.

A value must stay within 1e-15 of its pin, relative to the larger of the
value and the size of the terms it is formed from: 1 for the completeness
defect (identity minus the Gram sum) and the second moment for the variance
(``E[f^2] - E[f]^2``), which on near-unitary maps is rounding dust.
"""

import numpy as np
import pytest

from gatefid import (
    GateSpec,
    KrausMap,
    avg_fidelity,
    conditional_fidelity,
    fourth_moment_general,
    gate_moments,
    kraus_avg_fidelity,
    variance,
)

REL = 1e-15
DELTAS = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1)


def _haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def cases():
    """``{name: (kind, inputs)}`` for the seeded maps, in a fixed order."""
    rng = np.random.default_rng(20261018)
    out = {}
    for n in (2, 3, 4, 5):
        for j in range(2):
            a = (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / n
            out[f"generic_n{n}_{j}"] = ("matrix", _haar(rng, n).conj().T @ a)
        for delta in DELTAS:
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w, v = np.linalg.eigh((h + h.conj().T) / 2)
            u = (v * np.exp(1j * delta * w / np.abs(w).max())) @ v.conj().T
            out[f"near_unitary_n{n}_{delta:g}"] = ("matrix", u)
            out[f"scaled_near_unitary_n{n}_{delta:g}"] = ("matrix", (1 - delta) * u)
        # Levels 0..n-2 are the subspace; level n-2 leaks into level n-1.
        target = np.zeros((n, n), dtype=np.complex128)
        target[: n - 1, : n - 1] = _haar(rng, n - 1)
        target[n - 1, n - 1] = np.exp(1j * rng.uniform(-np.pi, np.pi))
        mag, phase = rng.uniform(0.2, 1), rng.uniform(-np.pi, np.pi)
        alpha, s = mag * np.exp(1j * phase), np.sqrt(1 - mag * mag)
        leak = np.eye(n, dtype=np.complex128)
        leak[n - 2 :, n - 2 :] = [[alpha, s], [-s, np.conj(alpha)]]
        out[f"leaky_n{n}"] = ("leaky", (target, target @ leak, tuple(range(n - 1))))
        # A trace-preserving channel from a random isometry, and the same
        # operators scaled by 0.9 (trace-decreasing).
        q = np.linalg.qr(rng.standard_normal((3 * n, n)) + 1j * rng.standard_normal((3 * n, n)))[0]
        ops = tuple(q[k * n : (k + 1) * n] for k in range(3))
        target = _haar(rng, n)
        out[f"kraus_n{n}"] = ("kraus", (ops, target))
        out[f"kraus_decreasing_n{n}"] = ("kraus", (tuple(0.9 * g for g in ops), target))
    return out


def evaluate(kind, inputs):
    """The pinned quantities of one case, by name."""
    if kind == "matrix":
        rep = variance(inputs)
        return {
            "avg_fidelity": avg_fidelity(inputs),
            "fourth_moment_general": fourth_moment_general(inputs),
            "mean": rep.mean,
            "second_moment": rep.second_moment,
            "variance": rep.variance,
        }
    if kind == "leaky":
        target, actual, subspace = inputs
        spec = GateSpec(target=target, actual=actual, subspace=subspace)
        rep = gate_moments(spec)
        return {
            "mean": rep.mean,
            "second_moment": rep.second_moment,
            "variance": rep.variance,
            "conditional_fidelity": conditional_fidelity(spec),
        }
    ops, target = inputs
    kmap = KrausMap(ops)
    return {
        "kraus_avg_fidelity": kraus_avg_fidelity(kmap, target),
        "completeness_defect": kmap.completeness_defect,
    }


PINNED = {
    "generic_n2_0": {
        "avg_fidelity": 0.17278463522892548,
        "fourth_moment_general": 0.041404922722064016,
        "mean": 0.17278463522892548,
        "second_moment": 0.041404922722064016,
        "variance": 0.011550392550871178,
    },
    "generic_n2_1": {
        "avg_fidelity": 0.20049764667055425,
        "fourth_moment_general": 0.06525950753414099,
        "mean": 0.20049764667055425,
        "second_moment": 0.06525950753414099,
        "variance": 0.025060201213710574,
    },
    "near_unitary_n2_1e-08": {
        "avg_fidelity": 1.0000000000000013,
        "fourth_moment_general": 1.0000000000000027,
        "mean": 1.0000000000000013,
        "second_moment": 1.0000000000000027,
        "variance": 0.0,
    },
    "scaled_near_unitary_n2_1e-08": {
        "avg_fidelity": 0.99999998000000134,
        "fourth_moment_general": 0.99999996000000324,
        "mean": 0.99999998000000134,
        "second_moment": 0.99999996000000324,
        "variance": 1.1102230246251565e-16,
    },
    "near_unitary_n2_1e-06": {
        "avg_fidelity": 0.99999999999945466,
        "fourth_moment_general": 0.99999999999890909,
        "mean": 0.99999999999945466,
        "second_moment": 0.99999999999890909,
        "variance": 0.0,
    },
    "scaled_near_unitary_n2_1e-06": {
        "avg_fidelity": 0.99999800000045447,
        "fourth_moment_general": 0.99999600000490907,
        "mean": 0.99999800000045447,
        "second_moment": 0.99999600000490907,
        "variance": 1.1102230246251565e-16,
    },
    "near_unitary_n2_0.0001": {
        "avg_fidelity": 0.99999999837546671,
        "fourth_moment_general": 0.99999999675093343,
        "mean": 0.99999999837546671,
        "second_moment": 0.99999999675093343,
        "variance": 0.0,
    },
    "scaled_near_unitary_n2_0.0001": {
        "avg_fidelity": 0.99980000837579153,
        "fourth_moment_general": 0.99960005674823293,
        "mean": 0.99980000837579153,
        "second_moment": 0.99960005674823293,
        "variance": 1.1102230246251565e-16,
    },
    "near_unitary_n2_0.01": {
        "avg_fidelity": 0.99996282668389258,
        "fourth_moment_general": 0.99992565502601161,
        "mean": 0.99996282668389258,
        "second_moment": 0.99992565502601161,
        "variance": 2.7637103716671163e-10,
    },
    "scaled_near_unitary_n2_0.01": {
        "avg_fidelity": 0.98006356643288306,
        "fourth_moment_general": 0.96052459451462313,
        "mean": 0.98006356643288306,
        "second_moment": 0.96052459451462313,
        "variance": 2.6548097054046593e-10,
    },
    "near_unitary_n2_0.1": {
        "avg_fidelity": 0.99565055653830592,
        "fourth_moment_general": 0.99132381426672345,
        "mean": 0.99565055653830592,
        "second_moment": 0.99132381426672345,
        "variance": 3.783531685175312e-06,
    },
    "scaled_near_unitary_n2_0.1": {
        "avg_fidelity": 0.80647695079602777,
        "fourth_moment_general": 0.65040755454039723,
        "mean": 0.80647695079602777,
        "second_moment": 0.65040755454039723,
        "variance": 2.4823751386682247e-06,
    },
    "leaky_n2": {
        "mean": 0.86753331281477997,
        "second_moment": 0.7526140488433869,
        "variance": 0.0,
        "conditional_fidelity": 0.99999999999999978,
    },
    "kraus_n2": {
        "kraus_avg_fidelity": 0.60896733321022511,
        "completeness_defect": 2.220465904237887e-16,
    },
    "kraus_decreasing_n2": {
        "kraus_avg_fidelity": 0.49326353990028243,
        "completeness_defect": 0.18999999999999995,
    },
    "generic_n3_0": {
        "avg_fidelity": 0.073495909605933704,
        "fourth_moment_general": 0.0085968068836268612,
        "mean": 0.073495909605933704,
        "second_moment": 0.0085968068836268612,
        "variance": 0.0031951581548232827,
    },
    "generic_n3_1": {
        "avg_fidelity": 0.11748464311107402,
        "fourth_moment_general": 0.023217903754694468,
        "mean": 0.11748464311107402,
        "second_moment": 0.023217903754694468,
        "variance": 0.0094152623877580346,
    },
    "near_unitary_n3_1e-08": {
        "avg_fidelity": 1.0,
        "fourth_moment_general": 1.0000000000000002,
        "mean": 1.0,
        "second_moment": 1.0000000000000002,
        "variance": 2.2204460492503131e-16,
    },
    "scaled_near_unitary_n3_1e-08": {
        "avg_fidelity": 0.99999998000000023,
        "fourth_moment_general": 0.99999996000000113,
        "mean": 0.99999998000000023,
        "second_moment": 0.99999996000000113,
        "variance": 2.2204460492503131e-16,
    },
    "near_unitary_n3_1e-06": {
        "avg_fidelity": 0.99999999999974565,
        "fourth_moment_general": 0.99999999999949074,
        "mean": 0.99999999999974565,
        "second_moment": 0.99999999999949074,
        "variance": 0.0,
    },
    "scaled_near_unitary_n3_1e-06": {
        "avg_fidelity": 0.99999800000074546,
        "fourth_moment_general": 0.99999600000549071,
        "mean": 0.99999800000074546,
        "second_moment": 0.99999600000549071,
        "variance": 0.0,
    },
    "near_unitary_n3_0.0001": {
        "avg_fidelity": 0.99999999645914039,
        "fourth_moment_general": 0.99999999291828046,
        "mean": 0.99999999645914039,
        "second_moment": 0.99999999291828046,
        "variance": 0.0,
    },
    "scaled_near_unitary_n3_0.0001": {
        "avg_fidelity": 0.99980000645984823,
        "fourth_moment_general": 0.99960005291711274,
        "mean": 0.99980000645984823,
        "second_moment": 0.99960005291711274,
        "variance": 1.1102230246251565e-16,
    },
    "near_unitary_n3_0.01": {
        "avg_fidelity": 0.99997224921791317,
        "fourth_moment_general": 0.99994449935995156,
        "mean": 0.99997224921791317,
        "second_moment": 0.99994449935995156,
        "variance": 1.540193528271061e-10,
    },
    "scaled_near_unitary_n3_0.01": {
        "avg_fidelity": 0.98007280145847664,
        "fourth_moment_general": 0.96054269630661693,
        "mean": 0.98007280145847664,
        "second_moment": 0.96054269630661693,
        "variance": 1.4795031866299269e-10,
    },
    "near_unitary_n3_0.1": {
        "avg_fidelity": 0.99718114857478513,
        "fourth_moment_general": 0.99437183081288427,
        "mean": 0.99718114857478513,
        "second_moment": 0.99437183081288427,
        "variance": 1.5877399566210926e-06,
    },
    "scaled_near_unitary_n3_0.1": {
        "avg_fidelity": 0.80771673034557601,
        "fourth_moment_general": 0.65240735819633344,
        "mean": 0.80771673034557601,
        "second_moment": 0.65240735819633344,
        "variance": 1.0417161855347246e-06,
    },
    "leaky_n3": {
        "mean": 0.58483429593860914,
        "second_moment": 0.36816238757062386,
        "variance": 0.026131233864615189,
        "conditional_fidelity": 0.77813533960989201,
    },
    "kraus_n3": {
        "kraus_avg_fidelity": 0.337121307015261,
        "completeness_defect": 4.4409636824187953e-16,
    },
    "kraus_decreasing_n3": {
        "kraus_avg_fidelity": 0.27306825868236145,
        "completeness_defect": 0.19000000000000006,
    },
    "generic_n4_0": {
        "avg_fidelity": 0.046948218831895684,
        "fourth_moment_general": 0.0036123416663255948,
        "mean": 0.046948218831895684,
        "second_moment": 0.0036123416663255948,
        "variance": 0.0014082064148380302,
    },
    "generic_n4_1": {
        "avg_fidelity": 0.032733501469688418,
        "fourth_moment_general": 0.0018953982082665528,
        "mean": 0.032733501469688418,
        "second_moment": 0.0018953982082665528,
        "variance": 0.00082391608980045901,
    },
    "near_unitary_n4_1e-08": {
        "avg_fidelity": 0.99999999999999878,
        "fourth_moment_general": 0.99999999999999756,
        "mean": 0.99999999999999878,
        "second_moment": 0.99999999999999756,
        "variance": 0.0,
    },
    "scaled_near_unitary_n4_1e-08": {
        "avg_fidelity": 0.9999999799999989,
        "fourth_moment_general": 0.99999995999999836,
        "mean": 0.9999999799999989,
        "second_moment": 0.99999995999999836,
        "variance": 1.1102230246251565e-16,
    },
    "near_unitary_n4_1e-06": {
        "avg_fidelity": 0.99999999999971689,
        "fourth_moment_general": 0.99999999999943356,
        "mean": 0.99999999999971689,
        "second_moment": 0.99999999999943356,
        "variance": 0.0,
    },
    "scaled_near_unitary_n4_1e-06": {
        "avg_fidelity": 0.9999980000007167,
        "fourth_moment_general": 0.99999600000543354,
        "mean": 0.9999980000007167,
        "second_moment": 0.99999600000543354,
        "variance": 1.1102230246251565e-16,
    },
    "near_unitary_n4_0.0001": {
        "avg_fidelity": 0.99999999589260202,
        "fourth_moment_general": 0.99999999178520405,
        "mean": 0.99999999589260202,
        "second_moment": 0.99999999178520405,
        "variance": 0.0,
    },
    "scaled_near_unitary_n4_0.0001": {
        "avg_fidelity": 0.99980000589342366,
        "fourth_moment_general": 0.99960005178448974,
        "mean": 0.99980000589342366,
        "second_moment": 0.99960005178448974,
        "variance": 0.0,
    },
    "near_unitary_n4_0.01": {
        "avg_fidelity": 0.99995775873887816,
        "fourth_moment_general": 0.99991551951543456,
        "mean": 0.99995775873887816,
        "second_moment": 0.99991551951543456,
        "variance": 2.5335411546478781e-10,
    },
    "scaled_near_unitary_n4_0.01": {
        "avg_fidelity": 0.98005859933997441,
        "fourth_moment_general": 0.96051485838360329,
        "mean": 0.98005859933997441,
        "second_moment": 0.96051485838360329,
        "variance": 2.4337076798275348e-10,
    },
    "near_unitary_n4_0.1": {
        "avg_fidelity": 0.99573295801315154,
        "fourth_moment_general": 0.99148690783625826,
        "mean": 0.99573295801315154,
        "second_moment": 0.99148690783625826,
        "variance": 2.7841626376590156e-06,
    },
    "scaled_near_unitary_n4_0.1": {
        "avg_fidelity": 0.80654369599065256,
        "fourth_moment_general": 0.65051456023136889,
        "mean": 0.80654369599065256,
        "second_moment": 0.65051456023136889,
        "variance": 1.826689106754209e-06,
    },
    "leaky_n4": {
        "mean": 0.42738330669381996,
        "second_moment": 0.2717157160266756,
        "variance": 0.089059225186131824,
        "conditional_fidelity": 0.59339774886126795,
    },
    "kraus_n4": {
        "kraus_avg_fidelity": 0.22987675455733236,
        "completeness_defect": 4.4408920985006262e-16,
    },
    "kraus_decreasing_n4": {
        "kraus_avg_fidelity": 0.18620017119143925,
        "completeness_defect": 0.19000000000000006,
    },
    "generic_n5_0": {
        "avg_fidelity": 0.02333107271509267,
        "fourth_moment_general": 0.00097746813542853275,
        "mean": 0.02333107271509267,
        "second_moment": 0.00097746813542853275,
        "variance": 0.00043312918139159107,
    },
    "generic_n5_1": {
        "avg_fidelity": 0.018966402293129944,
        "fourth_moment_general": 0.00066144448406186781,
        "mean": 0.018966402293129944,
        "second_moment": 0.00066144448406186781,
        "variance": 0.00030172006811702299,
    },
    "near_unitary_n5_1e-08": {
        "avg_fidelity": 1.0000000000000009,
        "fourth_moment_general": 1.0000000000000022,
        "mean": 1.0000000000000009,
        "second_moment": 1.0000000000000022,
        "variance": 4.4408920985006262e-16,
    },
    "scaled_near_unitary_n5_1e-08": {
        "avg_fidelity": 0.99999998000000134,
        "fourth_moment_general": 0.99999996000000291,
        "mean": 0.99999998000000134,
        "second_moment": 0.99999996000000291,
        "variance": 0.0,
    },
    "near_unitary_n5_1e-06": {
        "avg_fidelity": 0.99999999999967915,
        "fourth_moment_general": 0.99999999999935874,
        "mean": 0.99999999999967915,
        "second_moment": 0.99999999999935874,
        "variance": 4.4408920985006262e-16,
    },
    "scaled_near_unitary_n5_1e-06": {
        "avg_fidelity": 0.9999980000006794,
        "fourth_moment_general": 0.99999600000535893,
        "mean": 0.9999980000006794,
        "second_moment": 0.99999600000535893,
        "variance": 1.1102230246251565e-16,
    },
    "near_unitary_n5_0.0001": {
        "avg_fidelity": 0.99999999659368943,
        "fourth_moment_general": 0.99999999318737909,
        "mean": 0.99999999659368943,
        "second_moment": 0.99999999318737909,
        "variance": 2.2204460492503131e-16,
    },
    "scaled_near_unitary_n5_0.0001": {
        "avg_fidelity": 0.99980000659437074,
        "fourth_moment_general": 0.99960005318610434,
        "mean": 0.99980000659437074,
        "second_moment": 0.99960005318610434,
        "variance": 5.5511151231257827e-16,
    },
    "near_unitary_n5_0.01": {
        "avg_fidelity": 0.99996375222757439,
        "fourth_moment_general": 0.99992750602399894,
        "mean": 0.99996375222757439,
        "second_moment": 0.99992750602399894,
        "variance": 2.5494917288426677e-10,
    },
    "scaled_near_unitary_n5_0.01": {
        "avg_fidelity": 0.98006447355824566,
        "fourth_moment_general": 0.96052637257590456,
        "mean": 0.98006447355824566,
        "second_moment": 0.96052637257590456,
        "variance": 2.4490331984594604e-10,
    },
    "near_unitary_n5_0.1": {
        "avg_fidelity": 0.99733369881239908,
        "fourth_moment_general": 0.99467568614443336,
        "mean": 0.99733369881239908,
        "second_moment": 0.99467568614443336,
        "variance": 1.179357612235421e-06,
    },
    "scaled_near_unitary_n5_0.1": {
        "avg_fidelity": 0.80784029603804364,
        "fourth_moment_general": 0.65260671767936296,
        "mean": 0.80784029603804364,
        "second_moment": 0.65260671767936296,
        "variance": 7.7377652896171156e-07,
    },
    "leaky_n5": {
        "mean": 0.681823608925896,
        "second_moment": 0.51250610965264676,
        "variance": 0.047622675963913619,
        "conditional_fidelity": 0.88775441690784318,
    },
    "kraus_n5": {
        "kraus_avg_fidelity": 0.21369925271887938,
        "completeness_defect": 2.2204460492503131e-16,
    },
    "kraus_decreasing_n5": {
        "kraus_avg_fidelity": 0.17309639470229229,
        "completeness_defect": 0.19000000000000017,
    },
}

CASES = cases()


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_pinned_value(name):
    got = evaluate(*CASES[name])
    want = PINNED[name]
    assert sorted(got) == sorted(want)
    for key, value in got.items():
        scale = {"completeness_defect": 1.0, "variance": want.get("second_moment", 0.0)}
        tol = REL * max(abs(want[key]), scale.get(key, 0.0))
        assert abs(value - want[key]) <= tol, (key, value, want[key])
