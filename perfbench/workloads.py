"""The benchmark's workloads: inputs built from a seed, one operation, checks.

Every workload is a closed loop with one client: the worker calls
``run(i)`` for i = 0, 1, 2, ... and each call starts after the previous one
returned. Inputs are built with numpy and plain JSON only, so gatefid sees
nothing but the generated inputs. Library calls go through module
attributes (``moments.gate_moments``, ``cli.main``) so that the tracer's
wrappers are reached when it is installed.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gatefid import cli, linalg, moments, qubit_dist, serialize

# The package attribute gatefid.optimize is the tuner function, not the module.
optimize = importlib.import_module("gatefid.optimize")

VERIFY_CHECKS = (
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
)


def derived_seed(seed: int, tag: int) -> int:
    """A 31-bit seed for one input stream of one workload."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0] >> 1)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``gatefid`` command: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def write_matrix(path: Path, m: np.ndarray) -> Path:
    entries = [[float(v.real), float(v.imag)] for v in np.asarray(m).ravel()]
    path.write_text(json.dumps({"dim": m.shape[0], "entries": entries}), encoding="utf-8")
    return path


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / n


def close(got: float, ref: float, rel: float) -> bool:
    return abs(got - ref) <= rel * abs(ref)


@dataclass
class Outcome:
    """What the output checks found, over all operations of a run."""

    failed: int = 0
    notes: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    # What a probe of a documented defect found; these count as no operation.
    defects: list[str] = field(default_factory=list)

    def fail(self, where: str, reason: str, times: int = 1) -> None:
        self.failed += times
        if len(self.notes) < 20:
            self.notes.append(f"{where}: {reason}")


class Workload:
    name = ""
    # Operations in one pass over the inputs. Operation i runs input
    # i % cycle, and the timed loops end after whole passes.
    cycle = 1
    samples_per_op = 0  # Monte-Carlo samples one operation asks for

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.outputs: dict[int, object] = {}

    def warm_up(self) -> None:
        """Run the code paths once so lazy set-up is not timed."""

    def run(self, i: int):
        raise NotImplementedError

    def keep(self, i: int, out) -> None:
        self.outputs[i] = out

    def check(self) -> Outcome:
        raise NotImplementedError


class Sample(Workload):
    """``gatefid sample`` at 10^6 samples, alternating a 2x2 and a 4x4 map."""

    name = "sample"
    cycle = 2
    samples_per_op = 1_000_000
    bins = 50
    # The shipped two-piece example: diag(0.7 e^{i pi/8}, 0.8 e^{i 4 pi/5}).
    reference = np.diag([0.7 * np.exp(1j * np.pi / 8), 0.8 * np.exp(1j * 4 * np.pi / 5)])

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        rng = np.random.default_rng(derived_seed(seed, 1))
        self.matrices = [self.reference, random_matrix(rng, 4)]
        self.paths = [
            write_matrix(workdir / "map2.json", self.matrices[0]),
            write_matrix(workdir / "map4.json", self.matrices[1]),
        ]
        self.out = workdir / "out"
        self.out.mkdir()
        self.base = derived_seed(seed, 2)

    def _argv(self, i: int, samples: int, prefix: Path) -> list[str]:
        return [
            "sample", "--matrix", str(self.paths[i % 2]), "--samples", str(samples),
            "--bins", str(self.bins), "--seed", str(self.base + i), "--out", str(prefix),
        ]

    def warm_up(self):
        for i in (0, 1):
            run_cli(self._argv(i, 10_000, self.out / f"warm{i}"))

    def run(self, i):
        return run_cli(self._argv(i, self.samples_per_op, self.out / f"op{i}"))

    def check(self):
        import oracle

        with oracle.precise():
            refs = [oracle.fidelity_moments(oracle.to_mp(m))[0] for m in self.matrices]
        res = Outcome()
        for i, (code, text) in sorted(self.outputs.items()):
            if code != 0:
                res.fail(f"op {i}", f"exit {code}")
                continue
            try:
                est = json.loads(text)
                est = {key: est[key] for key in ("mean", "std_error", "samples")}
            except (ValueError, KeyError, TypeError) as exc:
                res.fail(f"op {i}", f"unreadable estimate: {exc}")
                continue
            if est["samples"] != self.samples_per_op:
                res.fail(f"op {i}", f"samples {est['samples']}")
            elif not abs(est["mean"] - refs[i % 2]) <= 4 * est["std_error"]:
                res.fail(f"op {i}", f"mean {est['mean']} vs {refs[i % 2]} beyond 4 sigma")
            else:
                with open(self.out / f"op{i}.csv", encoding="utf-8") as fh:
                    counts = [int(row["count"]) for row in csv.DictReader(fh)]
                if len(counts) != self.bins or sum(counts) != self.samples_per_op:
                    res.fail(f"op {i}", f"histogram has {len(counts)} bins, {sum(counts)} counts")
        return res


class Verify(Workload):
    """``gatefid verify --level full`` with a new seed per operation."""

    name = "verify"

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.base = derived_seed(seed, 3)

    def warm_up(self):
        run_cli(["verify", "--level", "quick", "--seed", str(self.base)])

    def run(self, i):
        return run_cli(["verify", "--level", "full", "--seed", str(self.base + i)])

    def check(self):
        # Exit 3 (a check did not pass) is a result, not a failed operation;
        # check outcomes are counted instead. See README.md on the seed flake.
        res = Outcome(counts={"checks_run": 0, "checks_passed": 0, "exit_3": 0})
        for i, (code, text) in sorted(self.outputs.items()):
            if code not in (0, 3):
                res.fail(f"op {i}", f"exit {code}")
                continue
            try:
                report = json.loads(text)
                names = tuple(c["name"] for c in report["checks"])
                passed = [c["passed"] for c in report["checks"]]
                well_formed = (
                    report["level"] == "full"
                    and report["seed"] == self.base + i
                    and names == VERIFY_CHECKS
                    and all(isinstance(p, bool) for p in passed)
                    and report["passed"] == all(passed)
                    and (code == 0) == report["passed"]
                )
            except (ValueError, KeyError, TypeError) as exc:
                res.fail(f"op {i}", f"unreadable report: {exc}")
                continue
            if not well_formed:
                res.fail(f"op {i}", "malformed report")
                continue
            res.counts["checks_run"] += len(passed)
            res.counts["checks_passed"] += sum(passed)
            res.counts["exit_3"] += code == 3
        return res


class ClosedForm(Workload):
    """Closed-form moments of one seeded map per operation, from a fixed mix."""

    name = "closed_form"
    per_kind = 40
    kinds = ("generic", "far_unitary", "near_unitary", "leaky", "kraus", "qubit_normal")

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        rng = np.random.default_rng(derived_seed(seed, 5))
        # Fixed counts per kind (only the parameters are seeded), so the mix
        # and hence the latency distribution do not depend on the seed.
        pool = [self._make(kind, j, rng) for kind in self.kinds for j in range(self.per_kind)]
        self.pool = [pool[k] for k in rng.permutation(len(pool))]
        self.cycle = len(self.pool)
        self.runs = [0] * self.cycle
        self.first: dict[int, tuple] = {}
        self.differing: list[tuple[int, tuple]] = []

    @staticmethod
    def _make(kind: str, j: int, rng: np.random.Generator) -> dict:
        n = 2 + j % 4
        item = {"kind": kind, "subspace": None, "normal2": None}
        if kind == "generic":
            item.update(target=haar_unitary(rng, n), actual=random_matrix(rng, n))
        elif kind == "far_unitary":
            item.update(target=haar_unitary(rng, n), actual=haar_unitary(rng, n))
        elif kind == "near_unitary":
            # actual = target exp(i delta H), H Hermitian with spectrum in
            # [-1, 1], delta log-uniform in [1e-8, 1e-1].
            delta = 10.0 ** rng.uniform(-8, -1)
            v = haar_unitary(rng, n)
            phases = np.exp(1j * delta * rng.uniform(-1, 1, n))
            target = haar_unitary(rng, n)
            item.update(target=target, actual=target @ (v * phases) @ v.conj().T, delta=delta)
        elif kind == "leaky":
            # Levels 0, 1 are the computational subspace; level 1 leaks to 2.
            target = np.zeros((3, 3), dtype=np.complex128)
            target[:2, :2] = haar_unitary(rng, 2)
            target[2, 2] = np.exp(1j * rng.uniform(-np.pi, np.pi))
            mag, phase = rng.uniform(0, 1), rng.uniform(-np.pi, np.pi)
            alpha, s = mag * np.exp(1j * phase), math.sqrt(1 - mag * mag)
            leak = np.eye(3, dtype=np.complex128)
            leak[1:, 1:] = [[alpha, s], [-s, np.conj(alpha)]]
            item.update(target=target, actual=target @ leak, subspace=(0, 1))
        elif kind == "kraus":
            p = rng.uniform(0, 1)
            paulis = [
                np.eye(2),
                np.array([[0, 1], [1, 0]]),
                np.array([[0, -1j], [1j, 0]]),
                np.array([[1, 0], [0, -1]]),
            ]
            weights = [math.sqrt(1 - 0.75 * p)] + [math.sqrt(0.25 * p)] * 3
            target = haar_unitary(rng, 2)
            item.update(
                target=target,
                operators=tuple((w * target @ g).astype(np.complex128) for w, g in zip(weights, paulis)),
            )
        elif kind == "qubit_normal":
            while True:
                z = rng.uniform(-1, 1, 4)
                l0, l1 = complex(z[0], z[1]), complex(z[2], z[3])
                if max(abs(l0), abs(l1)) <= 1 and abs(l0 - l1) >= 0.05:
                    break
            v = haar_unitary(rng, 2)
            target = haar_unitary(rng, 2)
            item.update(target=target, actual=target @ (v * [l0, l1]) @ v.conj().T)
        if kind == "qubit_normal" or (kind == "far_unitary" and n == 2):
            item["normal2"] = item["target"].conj().T @ item["actual"]
        return item

    def warm_up(self):
        for i in range(self.cycle):
            self.run(i)

    def run(self, i):
        item = self.pool[i % self.cycle]
        if item["kind"] == "kraus":
            kmap = moments.KrausMap(item["operators"])
            return (moments.kraus_avg_fidelity(kmap, item["target"]),)
        spec = moments.GateSpec(target=item["target"], actual=item["actual"], subspace=item["subspace"])
        # variance() is known to be wrong on near-unitary maps (README.md,
        # known defects), so those operations ask for the mean only and
        # check() probes the variance apart from the timed loops.
        rep = moments.gate_moments(spec, with_variance=item["kind"] != "near_unitary")
        out = (rep.mean, rep.variance)
        if item["subspace"] is not None:
            out += (moments.conditional_fidelity(spec),)
        if item["normal2"] is not None:
            dist = qubit_dist.normal_pdf(linalg.eig2_normal(item["normal2"]))
            q = qubit_dist.quadrature_moments(dist)
            out += (q.mean, q.second_moment)
        return out

    def keep(self, i, out):
        # Outputs repeat every cycle; keep one per map plus any that differ.
        k = i % self.cycle
        self.runs[k] += 1
        if self.first.setdefault(k, out) != out:
            self.differing.append((i, out))

    def check(self):
        import oracle

        with oracle.precise():
            refs = {k: self._reference(item) for k, item in enumerate(self.pool)}
        res = Outcome(counts={"maps": len(self.first)})
        for k, out in sorted(self.first.items()):
            bad = self._compare(self.pool[k], out, refs[k])
            times = self.runs[k] - sum(i % self.cycle == k for i, _ in self.differing)
            if bad:
                res.fail(f"{self._describe(k)} (x{times})", ", ".join(bad), times)
        for i, out in self.differing:
            k = i % self.cycle
            bad = self._compare(self.pool[k], out, refs[k])
            res.fail(f"op {i}", "output differs from the map's first run: " + ", ".join(bad))
        res.counts["near_unitary_variance_misses"] = self._variance_probe(refs, res.defects)
        return res

    def _describe(self, k: int) -> str:
        item = self.pool[k]
        delta = f", delta {item['delta']:.1e}" if "delta" in item else ""
        return f"{item['kind']} map {k}{delta}"

    def _variance_probe(self, refs: dict, defects: list[str]) -> int:
        """How many near-unitary maps get a variance that misses the oracle.

        variance() forms <f^2> - <f>^2 from two numbers near 1, so on these
        maps it returns rounding noise (README.md, known defects). The
        probe runs after the timed loops and counts no operation.
        """
        misses = 0
        for k, item in enumerate(self.pool):
            if item["kind"] != "near_unitary":
                continue
            spec = moments.GateSpec(target=item["target"], actual=item["actual"])
            ref = refs[k]["variance"]
            try:
                variance = moments.gate_moments(spec).variance
            except Exception as exc:  # a raising variance() misses too
                got = f"{type(exc).__name__}: {exc}"
            else:
                if close(variance, ref, 1e-6):
                    continue
                got = f"{variance:.3e}"
            misses += 1
            defects.append(f"{self._describe(k)}: variance {got}, oracle {ref:.3e}")
        return misses

    @staticmethod
    def _reference(item: dict) -> dict:
        import oracle

        if item["kind"] == "kraus":
            ops = [oracle.to_mp(g) for g in item["operators"]]
            return {"mean": oracle.kraus_mean(oracle.to_mp(item["target"]), ops)}
        if item["subspace"] is not None:
            sel = np.ix_(item["subspace"], item["subspace"])
            actual_rel = oracle.to_mp(item["actual"][sel])
            m = oracle.to_mp(item["target"].conj().T[sel]) * actual_rel
        else:
            actual_rel = None
            m = oracle.dagger(oracle.to_mp(item["target"])) * oracle.to_mp(item["actual"])
        ref = dict(zip(("mean", "second", "variance"), oracle.fidelity_moments(m)))
        if actual_rel is not None:
            ref["conditional"] = oracle.conditional_mean(m, actual_rel)
        if item["normal2"] is not None:
            mean2, second2, _ = oracle.fidelity_moments(oracle.to_mp(item["normal2"]))
            ref.update(q_mean=mean2, q_second=second2)
        return ref

    @staticmethod
    def _compare(item: dict, out: tuple, ref: dict) -> list[str]:
        """Names of the outputs that miss their tolerance."""
        if item["kind"] == "kraus":
            return [] if close(out[0], ref["mean"], 1e-12) else ["mean"]
        bad = []
        if not close(out[0], ref["mean"], 1e-12):
            bad.append("mean")
        if item["kind"] == "near_unitary":
            if out[1] is not None:
                bad.append("variance given, not asked for")
        elif not close(out[1], ref["variance"], 1e-6):
            bad.append("variance")
        rest = list(out[2:])
        if item["subspace"] is not None and not close(rest.pop(0), ref["conditional"], 1e-12):
            bad.append("conditional")
        if item["normal2"] is not None:
            # Quadrature moments are checked at the tolerance verify uses.
            q_mean, q_second = rest
            if not (abs(q_mean - ref["q_mean"]) <= 1e-9 and abs(q_second - ref["q_second"]) <= 1e-9):
                bad.append("quadrature")
        return bad


class Tune(Workload):
    """``gatefid optimize`` on each shipped problem under three objectives."""

    name = "tune"
    objectives = ({"kind": "mean"}, {"kind": "mean_minus_k_sigma", "k": 1.0}, {"kind": "min_support"})

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        problems = []
        for src in sorted((root / "problems").glob("*.json")):
            base = json.loads(src.read_text(encoding="utf-8"))
            for obj in self.objectives:
                variant = dict(base, objective=obj)
                path = workdir / f"{src.stem}-{obj['kind']}.json"
                path.write_text(json.dumps(variant), encoding="utf-8")
                problems.append((path, variant))
        if not problems:
            raise FileNotFoundError(f"no problem files under {root / 'problems'}")
        # The seed only orders the problems; every cycle runs each once.
        order = np.random.default_rng(derived_seed(seed, 4)).permutation(len(problems))
        self.problems = [problems[k] for k in order]
        self.cycle = len(self.problems)

    def warm_up(self):
        for i in range(self.cycle):
            self.run(i)

    def run(self, i):
        return run_cli(["optimize", str(self.problems[i % self.cycle][0])])

    def check(self):
        res = Outcome(counts={"evaluations": 0, "tunes": 0})
        starts = {}
        for i, (code, text) in sorted(self.outputs.items()):
            k = i % self.cycle
            if code != 0:
                res.fail(f"op {i}", f"exit {code}")
                continue
            if k not in starts:
                starts[k] = self._start_value(self.problems[k][1])
            try:
                out = json.loads(text)
                out = {key: out[key] for key in ("converged", "best_value", "evaluations")}
            except (ValueError, KeyError, TypeError) as exc:
                res.fail(f"op {i}", f"unreadable result: {exc}")
                continue
            if not out["converged"]:
                res.fail(f"op {i}", "did not converge")
            elif not starts[k] <= out["best_value"] <= 1 + 1e-9:
                res.fail(f"op {i}", f"best_value {out['best_value']} outside [{starts[k]}, 1 + 1e-9]")
            res.counts["evaluations"] += out["evaluations"]
            res.counts["tunes"] += 1
        return res

    @staticmethod
    def _start_value(problem: dict) -> float:
        family = optimize.build_family(
            problem["family"],
            serialize.matrix_from_obj(problem["target"]),
            subspace=problem.get("subspace"),
        )
        objective = optimize.Objective(**problem["objective"])
        return optimize.evaluate_objective(family, objective, problem["start"])


WORKLOADS = {w.name: w for w in (Sample, Verify, ClosedForm, Tune)}
