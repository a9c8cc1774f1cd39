"""gatefid benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/gatefid`` must exist there).
The workload runs in its own Python process with BLAS/OpenMP threads set to
1; set-up is timed in further fresh processes. Human-readable lines (the
environment record and every metric with its unit) come first; the last
stdout line is the JSON result. Everything the run writes stays under the
checkout: scratch files in ``.bench_work/`` (removed at the end), the full
record and the traced run's spans in ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sample", "verify", "closed_form", "tune")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Set-ups timed in fresh interpreters on each side of the timed run; with
# the worker's own that makes 7, and the median is reported. Taking them
# before and after spreads them over the run, as the host's speed drifts.
SETUP_EACH_SIDE = 3
TIME_LIMIT_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; returns (start time, its JSON result)."""
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), *args]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {' '.join(cmd)}")
    return start, json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, workdir: Path, count: int, deadline: float) -> list[float]:
    """Set-up times of ``count`` workers started with ``--setup-only``."""
    times = []
    for k in range(count):
        start, out = run_worker(
            ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir / str(k)), "--setup-only"],
            deadline,
        )
        times.append(out["ready"] - start)
    return times


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gatefid").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, worker: dict) -> dict:
    return {
        "gatefid_commit": git_commit(),
        "gatefid_source_sha256": source_digest(),
        "gatefid_version": worker["gatefid"],
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "thread_env": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gatefid" / "__init__.py").is_file():
        print(f"error: no gatefid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    try:
        # The first set-up in a fresh checkout also compiles bytecode; it is
        # dropped so that every sample times the same work.
        setups = setup_seconds(args.workload, args.seed, workdir / "before", SETUP_EACH_SIDE + 1, deadline)[1:]
        worker_args = [
            "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir / "run"),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.trace:
            worker_args += ["--spans", str(results / f"spans-{args.workload}.npz")]
        start, out = run_worker(worker_args, deadline)
        setups.append(out["ready"] - start)
        setups += setup_seconds(args.workload, args.seed, workdir / "after", SETUP_EACH_SIDE, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = out["attempted"], out["failed"]
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": out["ops_per_s"],
        "latency_p50_ms": out["latency_p50_ms"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    # Reported and recorded with the end-to-end metrics but not in the JSON
    # result; README.md says why.
    extra = {
        "latency_tail_ms": (out["latency_tail_ms"], "ms"),
        "error_rate": (failed / attempted, "failed/attempted"),
    }
    record = {
        "environment": environment(args, out),
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
        | {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_samples_s": setups,
        "latency_tail_percentile": out["tail_percentile"],
        "latency_tail_samples_beyond": out["tail_samples_beyond"],
        "untraced_ops": out["ops"],
        "traced_ops": out.get("traced_ops", 0),
        "attempted": attempted,
        "failed": failed,
        "counts": out["counts"],
        "notes": out["notes"],
        "known_defects": out["known_defects"],
    }
    for key, value in record["environment"].items():
        print(f"env {key} = {value}")
    for name, m in record["end_to_end"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"note latency_tail_ms is p{out['tail_percentile']:.4g} of {out['ops']} operations, "
        f"{out['tail_samples_beyond']} beyond it; error_rate is {failed}/{attempted}"
    )
    if "near_unitary_variance_misses" in out["counts"]:
        print(
            f"note known defect: variance() missed the oracle on {out['counts']['near_unitary_variance_misses']} "
            "near-unitary maps, probed after the timed loops and not counted as operations"
        )
    for defect in out["known_defects"]:
        print(f"known-defect {defect}")
    for name, m in out.get("layers", {}).items():
        print(f"layer {name} = {m['value']:.6g} {m['unit']}")
    for note in out["notes"]:
        print(f"failure {note}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2), encoding="utf-8")

    metrics = out["layers"] if args.trace else {k: record["end_to_end"][k] for k in e2e}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
