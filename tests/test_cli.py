import argparse
import contextlib
import copy
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gatefid
from gatefid import eig2_normal, mc_moment, mc_sample, normal_pdf
from gatefid import cli as cli_mod, sampling
from gatefid.cli import main
from gatefid.linalg import QubitSpectrum
from gatefid.moments import KrausMap, MomentReport, depolarizing_kraus
from gatefid.sampling import mc_sample
from gatefid.serialize import kraus_to_obj, matrix_to_obj, save_matrix
from conftest import assert_scale_covariant, random_matrix, random_unitary

L0 = 0.7 * np.exp(1j * np.pi / 8)
L1 = 0.8 * np.exp(1j * 4 * np.pi / 5)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
REFERENCE_MEAN = (0.49 + 0.64 + 0.56 * np.cos(4 * np.pi / 5 - np.pi / 8)) / 3


@pytest.fixture
def files(tmp_path):
    paths = {}
    save_matrix(np.eye(2), tmp_path / "eye2.json")
    save_matrix(np.eye(3), tmp_path / "eye3.json")
    save_matrix(np.diag([L0, L1]), tmp_path / "reference.json")
    save_matrix(np.diag([1.0, 0.5]), tmp_path / "nonunitary.json")
    (tmp_path / "depol.json").write_text(json.dumps(kraus_to_obj(depolarizing_kraus(0.2))))
    (tmp_path / "broken.json").write_text("{not json")
    for name in ("eye2", "eye3", "reference", "nonunitary", "depol", "broken"):
        paths[name] = str(tmp_path / f"{name}.json")
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(*argv, flags=()):
    """Run the CLI in a fresh interpreter (``flags`` such as -O go to python)."""
    src = str(Path(gatefid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *flags, "-m", "gatefid.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def assert_one_error_line(proc, code):
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def assert_one_error_line_in_process(result, code):
    got, out, err = result
    assert got == code, err
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestMoments:
    def test_reference_mean(self, files, capsys):
        code, out, _ = run(
            capsys, "moments", "--target", files["eye2"], "--actual", files["reference"]
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["mean"] - REFERENCE_MEAN) <= 1e-9
        assert report["n_eff"] == 2
        assert report["method"] == "closed_form"

    def test_perfect_gate(self, files, capsys):
        code, out, _ = run(
            capsys, "moments", "--target", files["eye3"], "--actual", files["eye3"]
        )
        report = json.loads(out)
        assert code == 0
        assert report["mean"] == pytest.approx(1.0, abs=1e-12)
        assert report["variance"] == 0.0

    def test_kraus_depolarizing(self, files, capsys):
        code, out, _ = run(
            capsys, "moments", "--target", files["eye2"], "--kraus", files["depol"]
        )
        report = json.loads(out)
        assert code == 0
        assert report["mean"] == pytest.approx(0.9, abs=1e-12)
        assert "variance" not in report
        assert report["trace_preserving"] is True

    def test_subspace(self, files, capsys):
        code, out, _ = run(
            capsys,
            "moments",
            "--target",
            files["eye3"],
            "--actual",
            files["eye3"],
            "--subspace",
            "0,1",
        )
        report = json.loads(out)
        assert code == 0
        assert report["n_eff"] == 2
        assert report["mean"] == pytest.approx(1.0)

    def test_non_unitary_target_exits_1(self, files, capsys):
        code, _, err = run(
            capsys,
            "moments",
            "--target",
            files["nonunitary"],
            "--actual",
            files["eye2"],
        )
        assert code == 1
        assert err == "error: target must be unitary within 1e-10\n"

    def test_missing_file_exits_1(self, files, capsys):
        code, _, err = run(
            capsys, "moments", "--target", files["eye2"], "--actual", "missing.json"
        )
        assert code == 1
        assert "missing.json" in err

    def test_malformed_json_exits_1(self, files, capsys):
        code, _, err = run(
            capsys, "moments", "--target", files["broken"], "--actual", files["eye2"]
        )
        assert code == 1
        assert "broken.json" in err

    def test_kraus_with_subspace_rejected(self, files, capsys):
        code, _, _ = run(
            capsys,
            "moments",
            "--target",
            files["eye2"],
            "--kraus",
            files["depol"],
            "--subspace",
            "0",
        )
        assert code == 1

    def test_dim_mismatch_exits_1(self, files, capsys):
        code, _, err = run(
            capsys, "moments", "--target", files["eye3"], "--actual", files["eye2"]
        )
        assert code == 1
        assert "mismatch" in err

    @pytest.mark.parametrize(
        "subspace,message",
        [
            ("0,5", "selector indices must lie in [0, 2)"),
            ("1,0", "strictly increasing"),
            ("0,x", "bad subspace list '0,x'"),
        ],
        ids=["out_of_range", "not_increasing", "not_an_integer"],
    )
    def test_bad_subspace_exits_1_with_one_line(self, files, capsys, subspace, message):
        # A bad selector is a usage error here, as in a problem file's "subspace".
        argv = ["moments", "--target", files["eye2"], "--actual", files["eye2"]]
        result = run(capsys, *argv, "--subspace", subspace)
        assert_one_error_line_in_process(result, 1)
        assert message in result[2]

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts_on", "optimized"])
    def test_unrepresentable_moment_exits_2(self, files, flags):
        # The fourth moment of diag(1e150, 1e150) overflows a float, and at
        # 1e200 so does the mean. Run in a fresh interpreter so that -O (which
        # strips asserts) is in force. stderr must hold the error line alone:
        # no traceback and no numpy overflow warnings.
        for scale in (1e150, 1e200):
            huge = str(files["dir"] / "huge.json")
            save_matrix(np.diag([scale, scale]), huge)
            argv = ["moments", "--target", files["eye2"], "--actual", huge]
            assert_one_error_line(run_fresh(*argv, flags=flags), 2)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts_on", "optimized"])
    def test_unrepresentable_kraus_mean_exits_2(self, files, flags):
        # The completeness sum and the Gram trace of diag(1e200, 1e200)
        # overflow; stderr must hold the error line alone.
        huge = files["dir"] / "huge_kraus.json"
        huge.write_text(json.dumps({"operators": [matrix_to_obj(np.diag([1e200, 1e200]))]}))
        argv = ["moments", "--target", files["eye2"], "--kraus", str(huge)]
        assert_one_error_line(run_fresh(*argv, flags=flags), 2)

    @pytest.mark.parametrize(
        "target,actual",
        [
            (np.eye(1), np.array([[5000 + 0.3j]])),
            (np.eye(2), 1e4 * np.diag(np.exp(1j * np.array([3.0, 3.0 + 1e-5])))),
        ],
        ids=["scalar", "scaled_near_unitary"],
    )
    def test_large_near_constant_map_exits_0(self, files, capsys, target, actual):
        # E[f^2] - E[f]^2 rounds below 0 by more than an absolute 1e-12 but
        # well within the relative variance clamp.
        save_matrix(target, files["dir"] / "t.json")
        save_matrix(actual, files["dir"] / "a.json")
        code, out, err = run(
            capsys,
            "moments",
            "--target",
            str(files["dir"] / "t.json"),
            "--actual",
            str(files["dir"] / "a.json"),
        )
        assert code == 0, err
        assert json.loads(out)["variance"] >= 0.0


class TestDist:
    def test_reference_matrix(self, files, capsys):
        out_csv = str(files["dir"] / "pdf.csv")
        code, out, _ = run(
            capsys, "dist", "--matrix", files["reference"], "--out", out_csv, "--grid", "64"
        )
        assert code == 0
        meta = json.loads(out)
        assert meta["case"] == "two_piece"
        assert abs(meta["moments"]["mean"] - REFERENCE_MEAN) <= 1e-9
        lines = (files["dir"] / "pdf.csv").read_text().strip().splitlines()
        assert lines[0] == "f,density"
        assert len(lines) == 65

    def test_spectrum_flags(self, files, capsys):
        code, out, _ = run(
            capsys,
            "dist",
            "--lambda0",
            "0.5,0",
            "--lambda1",
            "1,0",
            "--out",
            str(files["dir"] / "one.csv"),
        )
        meta = json.loads(out)
        assert code == 0
        assert meta["case"] == "one_piece"
        assert meta["support"] == [pytest.approx(0.25), pytest.approx(1.0)]

    def test_unitary_spectrum(self, files, capsys):
        code, out, _ = run(
            capsys,
            "dist",
            "--lambda0=1,0",
            "--lambda1=-1,0",
            "--out",
            str(files["dir"] / "u.csv"),
        )
        meta = json.loads(out)
        assert code == 0
        assert meta["support"][1] == pytest.approx(1.0)
        assert meta["support"][0] == pytest.approx(0.0, abs=1e-30)

    def test_degenerate_exits_2_with_point_mass(self, files, capsys):
        code, _, err = run(
            capsys,
            "dist",
            "--lambda0",
            "1,0",
            "--lambda1",
            "1,0",
            "--out",
            str(files["dir"] / "d.csv"),
        )
        assert code == 2
        assert "point mass" in err
        assert "1.0" in err

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts_on", "optimized"])
    def test_support_below_float_resolution_exits_2_with_point_mass(self, files, flags):
        # Two unit-modulus eigenvalues 1e-8 apart: the support [1.0, 1.0] is
        # a point mass to float precision, not a grid of 1.0,inf rows.
        out_csv = files["dir"] / "narrow.csv"
        proc = run_fresh(
            "dist",
            "--lambda0=0.9210609940028851,0.38941834230865052",
            "--lambda1=0.92106099010870168,0.38941835151926046",
            "--grid",
            "8",
            "--out",
            str(out_csv),
            flags=flags,
        )
        assert_one_error_line(proc, 2)
        assert "point mass at f = 1.0" in proc.stderr
        assert not out_csv.exists()

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts_on", "optimized"])
    @pytest.mark.parametrize("source", ["lambda", "matrix"])
    def test_overflowing_eigenvalues_exit_2(self, files, flags, source):
        # |l|^2 overflows a float: one error line, no traceback, no numpy
        # warnings, no CSV.
        if source == "lambda":
            argv = ["--lambda0=1e155,0", "--lambda1=0,1e155"]
        else:
            save_matrix(np.diag([1e155, 1e155j]), files["dir"] / "huge.json")
            argv = ["--matrix", str(files["dir"] / "huge.json")]
        out_csv = files["dir"] / "huge.csv"
        proc = run_fresh("dist", *argv, "--out", str(out_csv), flags=flags)
        assert_one_error_line(proc, 2)
        assert "not representable" in proc.stderr
        assert not out_csv.exists()

    @pytest.mark.parametrize("modulus", [1e76, 1e77])
    def test_second_moment_limit(self, files, capsys, modulus):
        # The JSON carries E f^2, with f up to |l|^2, while its square is a
        # float: at 1e76 (f up to 1e152), not at 1e77, as the README says.
        # The law is finite at both, so both exit 0 with the law and its CSV.
        out_csv = files["dir"] / "big.csv"
        argv = [f"--lambda0={modulus},0", f"--lambda1=0,{modulus}", "--out", str(out_csv)]
        code, out, err = run(capsys, "dist", *argv)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["support"] == pytest.approx([modulus**2 / 2, modulus**2])
        assert ("moments" in report) == (modulus < 1e77)
        text = out_csv.read_text().lower()
        assert "inf" not in text and "nan" not in text

    def test_law_without_moments_where_they_overflow(self, files, capsys):
        # f reaches 4e200, whose square overflows, but the law is finite:
        # exit 0 with the law's JSON, less its moments, and the CSV written.
        out_csv = files["dir"] / "law.csv"
        argv = ["--lambda0=1e100,0", "--lambda1=0,2e100", "--grid", "16", "--out", str(out_csv)]
        code, out, err = run(capsys, "dist", *argv)
        assert code == 0 and err == ""
        law = normal_pdf(QubitSpectrum.ordered(1e100, 2e100j))
        assert json.loads(out) == json.loads(cli_mod._dumps({**law.as_dict(), "csv": str(out_csv)}))
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == 16
        f, density = np.array([[float(x) for x in row.split(",")] for row in rows]).T
        assert np.isfinite(density).all() and (density > 0).all()
        assert law.support()[0] < f[0] and f[-1] == law.support()[1] == 4e200

    def test_agrees_with_moments_command(self, files, capsys):
        code, out, _ = run(
            capsys, "moments", "--target", files["eye2"], "--actual", files["reference"]
        )
        moments_report = json.loads(out)
        code2, out2, _ = run(
            capsys,
            "dist",
            "--matrix",
            files["reference"],
            "--out",
            str(files["dir"] / "x.csv"),
        )
        dist_report = json.loads(out2)["moments"]
        assert code == code2 == 0
        assert abs(moments_report["mean"] - dist_report["mean"]) <= 1e-9
        assert abs(moments_report["variance"] - dist_report["variance"]) <= 1e-9


# dist --matrix across scales: (map, exit code, a part of the error line).
# At k = 400, f is near 1e240: the law is reported without its moments,
# since the second moment overflows.
_U = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
SCALED_DIST = {
    "normal": (_U @ np.diag([0.3 + 0.4j, -0.6 + 0.1j]) @ _U.conj().T, 0, ""),
    "non_normal": (np.array([[1, 3], [0, -1]], dtype=complex), 1, "not normal"),
    "scalar": ((0.6 - 0.8j) * np.eye(2), 2, "point mass"),
}


class TestDistAcrossScales:
    @pytest.mark.parametrize("k", [-400, -100, 0, 100, 400])
    @pytest.mark.parametrize("name", sorted(SCALED_DIST))
    def test_law_scales_or_one_error_line(self, files, capsys, name, k):
        # Either exit 0 with the support of m scaled by 4^k, or exit 1 (a
        # refused matrix) or 2 (a point mass) with one error line at every
        # scale; an exception would escape main as a traceback.
        m, want, message = SCALED_DIST[name]
        path = files["dir"] / "scaled.json"
        save_matrix(m * 2.0**k, path)
        out_csv = files["dir"] / "scaled.csv"
        code, out, err = run(capsys, "dist", "--matrix", str(path), "--out", str(out_csv))
        if want == 0:
            assert code == 0 and err == ""
            base = normal_pdf(eig2_normal(m)).support()
            report = json.loads(out)
            assert report["support"] == [2.0 ** (2 * k) * f for f in base]
            assert ("moments" in report) == (k <= 100)
            text = (out + out_csv.read_text()).lower()
            assert "nan" not in text and "inf" not in text
        else:
            assert_one_error_line_in_process((code, out, err), want)
            assert message in err
            assert not out_csv.exists()


# gatefid sample across scales: a two-piece, a full 3x3, a non-normal and a
# scalar map.
SCALED_SAMPLE = {
    "reference": np.diag([L0, L1]),
    "random3": random_matrix(np.random.default_rng(3), 3),
    "non_normal": np.array([[1, 2], [0, -0.5j]]),
    "scalar": (0.3 + 0.4j) * np.eye(2),
}


class TestSampleAcrossScales:
    @pytest.mark.parametrize("name", sorted(SCALED_SAMPLE))
    @settings(max_examples=20, deadline=None)
    @given(exponent=st.floats(-300, 300))
    @example(exponent=-310.0)  # a subnormal largest entry
    @example(exponent=-300.0)
    @example(exponent=-156.0)
    @example(exponent=153.75)
    @example(exponent=154.5)
    @example(exponent=300.0)
    def test_counts_every_draw_or_one_error_line(self, tmp_path_factory, name, exponent):
        # Exit 0 with every draw counted, or exit 2 with one error line; an
        # exception (or a RuntimeWarning, under pytest) escapes main.
        workdir = tmp_path_factory.mktemp("scaled")
        save_matrix(SCALED_SAMPLE[name] * 10.0**exponent, workdir / "m.json")
        argv = ["sample", "--matrix", str(workdir / "m.json"), "--samples", "500"]
        argv += ["--bins", "20", "--seed", "1", "--out", str(workdir / "run")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["samples"] == 500
            rows = (workdir / "run.csv").read_text().splitlines()[1:]
            assert sum(int(r.split(",")[2]) for r in rows) == 500
        else:
            assert_one_error_line_in_process((code, out.getvalue(), err.getvalue()), 2)


def cli_json(*argv):
    """The JSON of one in-process command, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


def seeded_spectrum(seed):
    z = np.random.default_rng(seed).uniform(-1, 1, 4)
    return complex(z[0], z[1]), complex(z[2], z[3])


class TestClosedFormsAcrossScales:
    # f of 2^k m is 4^k times f of m, and a power-of-two scale is exact: the
    # closed forms must follow it bit for bit, E f and the support at 4^k and
    # E f^2 and the variance at 16^k. (The dist CSV is exempt: its first grid
    # point sits an absolute 1e-9 above the support below f = 1.)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), k=st.integers(-120, 120))
    def test_moments(self, tmp_path_factory, seed, n, k):
        workdir = tmp_path_factory.mktemp("moments")
        target, actual = workdir / "target.json", workdir / "actual.json"
        save_matrix(np.eye(n), target)

        def report(m, keys):
            save_matrix(m, actual)
            out = cli_json("moments", "--target", str(target), "--actual", str(actual))
            return [out[key] for key in keys]

        m = random_matrix(np.random.default_rng(seed), n)
        assert_scale_covariant(lambda a: report(a, ["mean"]), m, k, 2)
        assert_scale_covariant(lambda a: report(a, ["second_moment", "variance"]), m, k, 4)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), k=st.integers(-120, 120))
    def test_moments_kraus(self, tmp_path_factory, seed, n, k):
        # trace_preserving is exempt: the completeness test is absolute.
        workdir = tmp_path_factory.mktemp("kraus")
        target, kraus = workdir / "target.json", workdir / "kraus.json"
        rng = np.random.default_rng(seed)
        save_matrix(random_unitary(rng, n), target)

        def mean(ops):
            kraus.write_text(json.dumps(kraus_to_obj(KrausMap(tuple(ops)))))
            return [cli_json("moments", "--target", str(target), "--kraus", str(kraus))["mean"]]

        ops = np.stack([random_matrix(rng, n) for _ in range(rng.integers(1, 4))])
        assert_scale_covariant(mean, ops, k, 2)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), k=st.integers(-120, 120))
    def test_moments_subspace(self, tmp_path_factory, seed, n, k):
        workdir = tmp_path_factory.mktemp("subspace")
        target, actual = workdir / "target.json", workdir / "actual.json"
        rng = np.random.default_rng(seed)
        # Diagonal, so block-diagonal over every subspace.
        save_matrix(np.diag(np.exp(2j * np.pi * rng.uniform(size=n))), target)
        picked = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        subspace = ",".join(str(i) for i in picked)

        def report(m, keys):
            save_matrix(m, actual)
            argv = ["--target", str(target), "--actual", str(actual), "--subspace", subspace]
            out = cli_json("moments", *argv)
            return [out[key] for key in keys]

        m = random_matrix(rng, n)
        assert_scale_covariant(lambda a: report(a, ["mean"]), m, k, 2)
        assert_scale_covariant(lambda a: report(a, ["second_moment", "variance"]), m, k, 4)

    @settings(max_examples=40, deadline=None)
    @given(spectrum=st.integers(0, 2**32 - 1).map(seeded_spectrum), k=st.integers(-120, 120))
    # Squared with pow, |l1|^2 of this spectrum broke the 4^k rule at k = 7.
    @example(
        spectrum=(
            -0.20815160696395218 - 0.121081734136268j,
            0.5782436977541383 - 0.6910853595117401j,
        ),
        k=7,
    )
    def test_dist(self, tmp_path_factory, spectrum, k):
        assume(abs(spectrum[0] - spectrum[1]) >= 1e-3)
        out_csv = tmp_path_factory.mktemp("dist") / "pdf.csv"

        def law(lams, degree):
            a, b = (f"{float(z.real)!r},{float(z.imag)!r}" for z in lams)
            out = cli_json(
                "dist", f"--lambda0={a}", f"--lambda1={b}", "--grid", "8", "--out", str(out_csv)
            )
            if degree == 2:
                return [*out["support"], out["f0"], out["moments"]["mean"]]
            return [out["moments"]["second_moment"], out["moments"]["variance"]]

        lams = np.array(spectrum)
        assert_scale_covariant(lambda x: law(x, 2), lams, k, 2)
        assert_scale_covariant(lambda x: law(x, 4), lams, k, 4)


class TestSample:
    def test_identity(self, files, capsys):
        prefix = str(files["dir"] / "ident")
        code, out, _ = run(
            capsys,
            "sample",
            "--matrix",
            files["eye2"],
            "--samples",
            "1000",
            "--bins",
            "10",
            "--seed",
            "7",
            "--out",
            prefix,
        )
        assert code == 0
        est = json.loads(out)
        assert est["mean"] == pytest.approx(1.0, abs=1e-12)
        assert est["std_error"] <= 1e-12

    def test_outputs_and_manifest(self, files, capsys):
        prefix = str(files["dir"] / "run")
        code, _, _ = run(
            capsys,
            "sample",
            "--matrix",
            files["reference"],
            "--samples",
            "2000",
            "--bins",
            "20",
            "--seed",
            "3",
            "--out",
            prefix,
        )
        assert code == 0
        manifest = json.loads((files["dir"] / "run.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert str(files["dir"] / "run.csv") in manifest["outputs"]
        assert manifest["inputs"] == [files["reference"]]
        assert "gatefid" in manifest["versions"]
        lines = (files["dir"] / "run.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,density"
        assert len(lines) == 21
        est = json.loads((files["dir"] / "run.json").read_text())
        assert est["samples"] == 2000

    def test_manifest_records_parsed_command_and_versions(self, files, capsys):
        argv = ["sample", "--matrix", files["reference"], "--samples", "500"]
        argv += ["--seed", "9", "--out", str(files["dir"] / "cmd run")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        manifest = json.loads((files["dir"] / "cmd run.manifest.json").read_text())
        assert manifest["command"] == shlex.join(["gatefid", *argv])
        assert shlex.split(manifest["command"])[1:] == argv
        versions = manifest["versions"]
        assert f"gatefid {gatefid.__version__}" in versions
        assert f"numpy {np.__version__}" in versions
        assert "python {}.{}.{}".format(*sys.version_info[:3]) in versions

    def test_cached_parser_keeps_no_state(self, files, capsys, monkeypatch):
        # The parser is built once per process; a flag given to one call must
        # not leak into the next, which gets its own defaults and paths.
        calls = []

        def recording(m, bins, samples, seed):
            calls.append((seed, bins))
            return mc_sample(m, bins, samples, seed)

        monkeypatch.setattr(cli_mod, "mc_sample", recording)
        first = ["sample", "--matrix", files["reference"], "--samples", "600"]
        first += ["--bins", "7", "--seed", "4", "--out", str(files["dir"] / "first")]
        second = ["sample", "--matrix", files["eye2"], "--samples", "700"]
        second += ["--out", str(files["dir"] / "second")]
        assert run(capsys, *first)[0] == 0
        assert run(capsys, *second)[0] == 0
        assert calls == [(4, 7), (0, 50)]
        manifest = json.loads((files["dir"] / "second.manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["inputs"] == [files["eye2"]]
        assert manifest["command"] == shlex.join(["gatefid", *second])
        assert all("second" in path for path in manifest["outputs"])
        assert json.loads((files["dir"] / "second.json").read_text())["samples"] == 700

    def test_reproducible_for_fixed_seed(self, files, capsys):
        a = str(files["dir"] / "a")
        b = str(files["dir"] / "b")
        for prefix in (a, b):
            code, _, _ = run(
                capsys,
                "sample",
                "--matrix",
                files["reference"],
                "--samples",
                "3000",
                "--bins",
                "15",
                "--seed",
                "11",
                "--out",
                prefix,
            )
            assert code == 0
        assert (files["dir"] / "a.csv").read_text() == (files["dir"] / "b.csv").read_text()
        est_a = json.loads((files["dir"] / "a.json").read_text())
        est_b = json.loads((files["dir"] / "b.json").read_text())
        assert est_a == est_b

    def test_reference_mean_within_three_sigma(self, files, capsys):
        code, out, _ = run(
            capsys,
            "sample",
            "--matrix",
            files["reference"],
            "--samples",
            "1000000",
            "--bins",
            "50",
            "--seed",
            "42",
            "--out",
            str(files["dir"] / "ref"),
        )
        est = json.loads(out)
        assert code == 0
        assert abs(est["mean"] - REFERENCE_MEAN) <= 3 * est["std_error"]

    def test_projector_mean_within_three_sigma(self, files, tmp_path, capsys):
        save_matrix(np.diag([1.0, 0.0]), tmp_path / "proj.json")
        code, out, _ = run(
            capsys,
            "sample",
            "--matrix",
            str(tmp_path / "proj.json"),
            "--samples",
            "1000000",
            "--seed",
            "42",
            "--out",
            str(files["dir"] / "proj"),
        )
        est = json.loads(out)
        assert code == 0
        assert abs(est["mean"] - 1 / 3) <= 3 * est["std_error"]

    @pytest.mark.parametrize("name", ["reference", "random4"])
    def test_one_draw_feeds_histogram_and_estimate(self, files, capsys, monkeypatch, name):
        # The CSV must be mc_sample's and the JSON mean mc_moment's on the
        # same seed, while the command draws each of its states only once.
        # Every map is binned over the sampler's outer range.
        if name == "random4":
            rng = np.random.default_rng(4)
            m = (rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))) / 4
            save_matrix(m, files["dir"] / "random4.json")
            files[name] = str(files["dir"] / "random4.json")
        else:
            m = np.diag([L0, L1])
        samples, bins, seed = 20_001, 30, 5
        drawn = []
        gaussian_rows = sampling._gaussian_rows

        def counting(rng, z, r2):
            drawn.append(len(z))
            return gaussian_rows(rng, z, r2)

        monkeypatch.setattr(sampling, "_gaussian_rows", counting)
        prefix = str(files["dir"] / f"one_{name}")
        argv = ["sample", "--matrix", files[name], "--samples", str(samples)]
        argv += ["--bins", str(bins), "--seed", str(seed), "--out", prefix]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert sum(drawn) == samples
        monkeypatch.undo()
        rows = (files["dir"] / f"one_{name}.csv").read_text().strip().splitlines()[1:]
        counts = [int(row.split(",")[2]) for row in rows]
        hist, _ = mc_sample(m, bins, samples, seed)
        assert counts == hist.counts.tolist()
        mean = json.loads(out)["mean"]
        want = mc_moment(m, 1, samples, seed).mean
        assert abs(mean - want) <= 1e-15 * abs(want)

    def test_nearly_normal_map_keeps_every_draw(self, files, capsys):
        # Its numerical range is a visible ellipse, though an absolute test
        # of [m, m^dag] takes it as normal; a segment law would hold about a
        # fifth of its draws.
        path = str(files["dir"] / "ellipse.json")
        save_matrix(np.array([[1.0, 5e-6], [0.0, 1.0 + 1e-6]]), path)
        prefix = files["dir"] / "ellipse_out"
        argv = ["sample", "--matrix", path, "--samples", "100000", "--seed", "3"]
        code, _, _ = run(capsys, *argv, "--out", str(prefix))
        assert code == 0
        rows = (files["dir"] / "ellipse_out.csv").read_text().strip().splitlines()[1:]
        assert sum(int(row.split(",")[2]) for row in rows) == 100_000

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts_on", "optimized"])
    def test_overflowing_map_exits_2(self, files, flags, n):
        # f overflows for every state. One error line, no numpy warnings,
        # no files.
        huge = str(files["dir"] / "huge.json")
        save_matrix(1e200 * np.eye(n), huge)
        prefix = files["dir"] / "huge_out"
        argv = ["sample", "--matrix", huge, "--samples", "1000", "--out", str(prefix)]
        proc = run_fresh(*argv, flags=flags)
        assert_one_error_line(proc, 2)
        assert "overflows" in proc.stderr
        assert not list(files["dir"].glob("huge_out*"))

    def test_huge_finite_fidelities_give_finite_json(self, files, capsys):
        # Every f is near 1e300, so squared deviations from the mean would
        # overflow unscaled; any numpy warning would fail this test.
        big = str(files["dir"] / "big.json")
        save_matrix(np.diag([1e150, 5e149j]), big)
        prefix = str(files["dir"] / "big_out")
        code, out, err = run(capsys, "sample", "--matrix", big, "--samples", "100000", "--out", prefix)
        assert code == 0 and err == ""
        est = json.loads(out)
        assert np.isfinite([est["mean"], est["std_error"]]).all()
        assert 0 < est["std_error"] < est["mean"]


class TestOptimize:
    def test_phase_problem(self, tmp_path, capsys):
        problem = {
            "family": "phase",
            "target": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
            "objective": {"kind": "mean"},
            "start": [2.0],
            "box": [[-3.141592653589793, 3.141592653589793]],
            "f_tol": 1e-12,
        }
        path = tmp_path / "phase.json"
        path.write_text(json.dumps(problem))
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "optimize", str(path), "--trace-out", str(trace_path))
        assert code == 0
        result = json.loads(out)
        assert abs(result["best_params"][0]) < 1e-6
        assert result["best_value"] == pytest.approx(1.0, abs=1e-10)
        assert result["converged"] is True
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "eval,p0,value"
        assert len(lines) == result["evaluations"] + 1

    def test_unknown_family_exits_1(self, tmp_path, capsys):
        problem = {
            "family": "nope",
            "target": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
            "objective": {"kind": "mean"},
            "start": [0.0],
            "box": [[-1, 1]],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        code, _, err = run(capsys, "optimize", str(path))
        assert code == 1
        assert "nope" in err

    def test_start_outside_box_exits_1(self, tmp_path, capsys):
        problem = {
            "family": "phase",
            "target": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
            "objective": {"kind": "mean"},
            "start": [5.0],
            "box": [[-1, 1]],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        code, _, err = run(capsys, "optimize", str(path))
        assert code == 1
        assert "outside" in err

    def test_nan_start_exits_1(self, tmp_path):
        # Python's json reads NaN. The box check must reject it before any
        # probe runs, since every comparison with NaN is false.
        problem = json.loads((PROBLEMS / "leaky_gate.json").read_text())
        problem["start"] = [float("nan"), float("nan")]
        path = tmp_path / "nan_start.json"
        path.write_text(json.dumps(problem))
        assert "NaN" in path.read_text()
        proc = run_fresh("optimize", str(path))
        assert_one_error_line(proc, 1)
        assert "nan" in proc.stderr
        assert "start point [nan, nan] lies outside the box" in proc.stderr


MALFORMED_FIELDS = {
    "max_evals_text": {"max_evals": "abc"},
    "max_evals_list": {"max_evals": [3]},
    "family_list": {"family": ["phase"]},
    "subspace_number": {"subspace": 5},
    "subspace_text_entry": {"subspace": ["0", "1"]},
    "start_text": {"start": "ab"},
    "start_text_entry": {"start": ["2.0"]},
    "objective_without_kind": {"objective": {"k": "x"}},
    "objective_k_text": {"objective": {"kind": "mean", "k": "x"}},
    "objective_text": {"objective": "mean"},
    "objective_unknown_kind": {"objective": {"kind": "max_support"}},
    "box_text": {"box": "ab"},
    "box_short_entry": {"box": [[1.0]]},
    "box_bool_entry": {"box": [[False, True]]},
    "x_tol_text": {"x_tol": "a"},
    "start_too_large": {"start": [10**400]},
    "no_start": {"start": None},
    "target_three_identity": {"target": {"dim": 2, "entries": [[3, 0], [0, 0], [0, 0], [3, 0]]}},
    "target_huge_identity": {"target": {"dim": 2, "entries": [[1e200, 0], [0, 0], [0, 0], [1e200, 0]]}},
}


class TestMalformedProblem:
    # A field of the wrong type, or a target that is not unitary, is a usage
    # error: exit 1 with one line, never a traceback, the invariant exit
    # code, or a "fidelity" above 1.
    @pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
    def test_exits_1_with_one_line(self, tmp_path, capsys, case):
        problem = json.loads((PROBLEMS / "phase_gate.json").read_text())
        problem.update(MALFORMED_FIELDS[case])
        if problem["start"] is None:
            del problem["start"]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(problem))
        result = run(capsys, "optimize", str(path))
        assert_one_error_line_in_process(result, 1)
        assert result[2].startswith(f"error: malformed problem file {path}: ")

    def test_not_an_object_exits_1(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert_one_error_line_in_process(run(capsys, "optimize", str(path)), 1)

    def test_integral_float_max_evals_still_accepted(self, tmp_path, capsys):
        problem = json.loads((PROBLEMS / "phase_gate.json").read_text())
        problem["max_evals"] = 400.0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run(capsys, "optimize", str(path))
        assert code == 0 and json.loads(out)["converged"] is True


INCONSISTENT_FIELDS = {
    "start_too_short": {"start": [0.3]},
    "start_too_long": {"start": [0.3, 0.5, 0.0]},
    "box_lo_not_below_hi": {"box": [[1.0, 0.0], [-3.0, 3.0]]},
    "box_lo_equals_hi": {"box": [[0.5, 0.5], [-3.0, 3.0]]},
    "box_one_pair_short": {"box": [[0.0, 1.0]]},
    "max_evals_below_param_count_plus_2": {"max_evals": 3},
    "subspace_out_of_range": {"subspace": [0, 5]},
    "subspace_not_increasing": {"subspace": [1, 0]},
    "target_of_wrong_dim": {"target": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}},
    "x_tol_nan": {"x_tol": float("nan")},
    "x_tol_negative": {"x_tol": -1.0},
    "f_tol_nan": {"f_tol": float("nan")},
    "f_tol_negative": {"f_tol": -1.0},
    "min_support_on_three_levels": {"subspace": [0, 1, 2], "objective": {"kind": "min_support"}},
    # Unitary, but it swaps level 1 of the subspace (0, 1) with level 2.
    "target_not_block_diagonal": {
        "target": {"dim": 3, "entries": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [1, 0], [0, 0]]}
    },
}


class TestInconsistentProblem:
    # Well-typed fields that do not fit together are a usage error too:
    # exit 1 with one line, before any probe runs.
    @pytest.mark.parametrize("case", sorted(INCONSISTENT_FIELDS))
    def test_exits_1_with_one_line(self, tmp_path, capsys, case):
        problem = json.loads((PROBLEMS / "leaky_gate.json").read_text())
        problem.update(INCONSISTENT_FIELDS[case])
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(problem))
        result = run(capsys, "optimize", str(path))
        assert_one_error_line_in_process(result, 1)

    def test_messages_name_the_mismatch(self, tmp_path, capsys):
        want = {
            "start_too_short": "expected 2 parameters, got 1",
            "box_lo_not_below_hi": "lo < hi",
            "box_one_pair_short": "one (lo, hi) pair per parameter",
            "max_evals_below_param_count_plus_2": "param_count + 2",
            "subspace_out_of_range": "selector indices must lie in [0, 3)",
            "target_not_block_diagonal": "target must be block-diagonal over the subspace",
            "x_tol_nan": "x_tol and f_tol must be at least 0, got nan and 1e-12",
            "f_tol_negative": "x_tol and f_tol must be at least 0, got 1e-08 and -1.0",
            "min_support_on_three_levels": "min_support needs a 2x2 comparison matrix, not 3x3",
        }
        for case, text in want.items():
            problem = json.loads((PROBLEMS / "leaky_gate.json").read_text())
            problem.update(INCONSISTENT_FIELDS[case])
            path = tmp_path / f"{case}.json"
            path.write_text(json.dumps(problem))
            assert text in run(capsys, "optimize", str(path))[2]

    def test_fresh_process_exits_1(self, tmp_path):
        problem = json.loads((PROBLEMS / "leaky_gate.json").read_text())
        problem["subspace"] = [0, 5]
        path = tmp_path / "subspace.json"
        path.write_text(json.dumps(problem))
        assert_one_error_line(run_fresh("optimize", str(path)), 1)


# The exit contract under any input file: valid matrix, Kraus and problem
# files, each run with one mutation, exit 0 with finite JSON or 1 or 2 with
# one error line. A RuntimeWarning is an error under pytest, so a numpy
# overflow on the way escapes main and fails here too.
_MAGNITUDES = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-320, 300))
_HUGE = st.integers(10**3, 10**400) | st.sampled_from([2.0**63, 1e300])
_TEXT = st.text("ab1e.é", max_size=4)
_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.sampled_from([0, 1, 2, -1, 2.0, 0.5])
    | _MAGNITUDES
    | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=2),
    max_leaves=4,
)
_FUZZ_FILES = {
    "unitary": matrix_to_obj(np.array([[0, 1j], [1j, 0]])),
    "reference": matrix_to_obj(np.diag([L0, L1])),
    "kraus": kraus_to_obj(depolarizing_kraus(0.2)),
    **{path.stem: json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))},
}
# "OUT" stands for an output path in the run's directory.
_FUZZ_RUNS = [
    ("moments", "--target", "unitary", "--actual", "reference"),
    ("moments", "--target", "unitary", "--kraus", "kraus"),
    ("dist", "--matrix", "reference", "--out", "OUT"),
    ("sample", "--matrix", "reference", "--samples", "100", "--out", "OUT"),
    *(("optimize", path.stem) for path in sorted(PROBLEMS.glob("*.json"))),
]


def _slots(node):
    """Every (container, key) pair in a JSON document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in list(keys):
        yield node, key
        yield from _slots(node[key])


def _mutate(data, doc):
    """One mutation of ``doc`` in place: a value replaced by any JSON value,
    nested in a list or dropped; an extra field or item; every matrix entry
    scaled by one power of ten; or every dim made huge."""
    kind = data.draw(st.sampled_from(["replace", "nest", "drop", "extra", "scale", "huge_dim"]))
    slots = list(_slots(doc))
    if kind == "scale":
        factor = data.draw(_MAGNITUDES)
        for parent, key in slots:
            if key == "entries":
                parent[key] = [[x * factor for x in entry] for entry in parent[key]]
        return
    if kind == "huge_dim":
        for parent, key in slots:
            if key == "dim":
                parent[key] = data.draw(_HUGE)
        return
    parent, key = data.draw(st.sampled_from(slots))
    if kind == "replace":
        parent[key] = data.draw(_JUNK)
    elif kind == "nest":
        parent[key] = [parent[key]]
    elif kind == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(_TEXT)] = data.draw(_JUNK)
    else:
        parent.append(data.draw(_JUNK))


def _refuse(constant):
    raise ValueError(f"{constant} in the JSON output")


class TestFuzzedFiles:
    @settings(max_examples=200, deadline=None)
    @given(argv=st.sampled_from(_FUZZ_RUNS), data=st.data())
    def test_exit_contract(self, tmp_path_factory, argv, data):
        workdir = tmp_path_factory.mktemp("fuzz")
        mutated = data.draw(st.sampled_from([arg for arg in argv if arg in _FUZZ_FILES]))
        args = []
        for arg in argv:
            if arg in _FUZZ_FILES:
                doc = copy.deepcopy(_FUZZ_FILES[arg])
                if arg == mutated:
                    _mutate(data, doc)
                arg = workdir / f"{arg}.json"
                arg.write_text(json.dumps(doc))
            args.append(str(workdir / "out") if arg == "OUT" else str(arg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 1, 2)
        if code == 0:
            assert err.getvalue() == ""
            json.loads(out.getvalue(), parse_constant=_refuse)
        else:
            assert_one_error_line_in_process((code, out.getvalue(), err.getvalue()), code)


class TestVerifyCommand:
    def test_quick_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--level", "quick", "--out", str(report_path))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "monomial_patterns",
            "hermitian_collapse",
            "distribution_moments",
            "mc_closed_form",
        }
        assert json.loads(report_path.read_text()) == report

    def test_corrupted_second_moment_fails(self, capsys, monkeypatch):
        import gatefid.moments as moments_mod

        true_fn = moments_mod.fourth_moment_general
        monkeypatch.setattr(
            moments_mod, "fourth_moment_general", lambda m: 1.2 * true_fn(m)
        )
        code, out, _ = run(capsys, "verify", "--level", "quick")
        assert code == 3
        report = json.loads(out)
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "mc_closed_form" in failed


class TestNonFiniteJson:
    # A NaN must not reach stdout or a file as JSON: it is exit 2 with one
    # error line. Each case plants a NaN in one computed result.
    def test_moments(self, files, capsys, monkeypatch):
        monkeypatch.setattr(
            cli_mod, "gate_moments", lambda spec: MomentReport(n_eff=2, mean=float("nan"))
        )
        argv = ["moments", "--target", files["eye2"], "--actual", files["reference"]]
        assert_one_error_line_in_process(run(capsys, *argv), 2)

    def test_sample(self, files, capsys, monkeypatch):
        def nan_sample(*args):
            hist, est = mc_sample(*args)
            return hist, dataclasses.replace(est, mean=float("nan"))

        monkeypatch.setattr(cli_mod, "mc_sample", nan_sample)
        prefix = files["dir"] / "nan_out"
        argv = ["sample", "--matrix", files["reference"], "--samples", "1000"]
        assert_one_error_line_in_process(run(capsys, *argv, "--out", str(prefix)), 2)
        assert not list(files["dir"].glob("nan_out*"))

    def test_verify_out(self, tmp_path, capsys, monkeypatch):
        report = {"level": "quick", "passed": True, "checks": [], "worst": float("nan")}
        monkeypatch.setattr(cli_mod, "run_checks", lambda level, seed: report)
        out = tmp_path / "report.json"
        argv = ["verify", "--out", str(out)]
        assert_one_error_line_in_process(run(capsys, *argv), 2)
        assert not out.exists()


# Flags (before the matrix and output flags) and a part of the error line.
BAD_FLAGS = {
    "sample_samples": (["sample", "--samples", "50"], "samples must be at least 100"),
    "sample_samples_not_int": (["sample", "--samples", "1e5"], "--samples: invalid int value"),
    "sample_bins": (["sample", "--bins", "1"], "bins must be at least 2"),
    "samples_below_bins": (
        ["sample", "--samples", "200", "--bins", "300"],
        "samples (200) must be at least bins (300)",
    ),
    "sample_seed": (["sample", "--seed", "-1"], "seed must be at least 0, got -1"),
    "sample_workers": (["sample", "--workers", "3"], "unrecognized arguments: --workers"),
    "verify_seed": (["verify", "--seed", "-1"], "seed must be at least 0, got -1"),
    "dist_grid": (
        ["dist", "--lambda0", "1,0", "--lambda1", "0,1", "--grid", "1"],
        "grid must be at least 2",
    ),
    "dist_lambda1_with_matrix": (["dist", "--lambda1", "1,0"], "--lambda1"),
    "dist_lambda_not_a_pair": (["dist", "--lambda0", "1", "--lambda1", "0,0"], "expected 're,im', got '1'"),
    "dist_lambda_not_numbers": (["dist", "--lambda0", "a,b", "--lambda1", "0,1"], "bad complex literal 'a,b'"),
    "dist_lambda_inf": (["dist", "--lambda0", "inf,0", "--lambda1", "0,1"], "'inf,0' is not finite"),
    "dist_lambda_nan": (["dist", "--lambda0", "nan,0", "--lambda1", "0,1"], "'nan,0' is not finite"),
}


class TestBadFlags:
    # A numeric flag out of its range, or flags that do not go together, are
    # usage errors: exit 1, one error line that names the limit, no files.
    @pytest.mark.parametrize("case", sorted(BAD_FLAGS))
    def test_exits_1_with_one_line(self, files, capsys, case):
        flags, message = BAD_FLAGS[case]
        out = files["dir"] / "bad"
        if flags[0] == "sample":
            flags = [*flags, "--matrix", files["reference"], "--out", str(out)]
        elif flags[0] == "verify":
            flags = [*flags, "--out", f"{out}.json"]
        else:
            if "--lambda0" not in flags:
                flags = [*flags, "--matrix", files["reference"]]
            flags = [*flags, "--out", f"{out}.csv"]
        result = run(capsys, *flags)
        assert_one_error_line_in_process(result, 1)
        assert message in result[2]
        assert not list(files["dir"].glob("bad*"))


def test_options_are_the_agreed_list():
    # A new flag has to be added here on purpose.
    actions = cli_mod._build_parser()._actions
    (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for a in p._actions for s in a.option_strings)
        for name, p in sub.choices.items()
    }
    assert options == {
        "moments": ["--actual", "--help", "--kraus", "--subspace", "--target", "-h"],
        "dist": ["--grid", "--help", "--lambda0", "--lambda1", "--matrix", "--out", "-h"],
        "sample": ["--bins", "--help", "--matrix", "--out", "--samples", "--seed", "-h"],
        "verify": ["--help", "--level", "--out", "--seed", "-h"],
        "optimize": ["--help", "--trace-out", "-h"],
    }


class TestUsage:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "moments", "--bogus", "x")
        assert code == 1
