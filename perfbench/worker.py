"""One benchmark workload in its own process.

``run.py`` starts this script; it sets up the workload, runs the timed
loop(s), checks every output and prints one JSON object as its last stdout
line. With ``--setup-only`` it stops as soon as the first operation could
start, which is how ``run.py`` times set-up in fresh interpreters.

Timed loops are closed: one client, each operation starting after the
previous one returned. The untraced loop gives the end-to-end numbers; with
``--trace 1`` a second loop of the same length runs with the tracer
installed and gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

TAIL_BEYOND = 10
# Length of the blocks latency_p50_ms is taken over; see median_latency.
BLOCK_S = 2.0


def tail_percentile(values) -> tuple[float, float]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns ``(percentile, value)``. With n samples the value is the
    (n - 10)-th smallest, at percentile 100 (n - 10) / n: with 1000 samples
    that is p99.0 with ten samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, xs[rank - 1]


def median_latency(latencies, cycle: int, block_s: float = BLOCK_S) -> float:
    """Median latency of one operation, robust to the host's speed drifting.

    The latencies (a whole number of passes of ``cycle`` inputs each) are
    cut into blocks of whole passes that take at least ``block_s``; the
    passes left over join the last block. Within a block each input gets
    its own median, because inputs of very different cost alternate and a
    pooled median would fall in a gap between their clusters. The block's
    value is the mean of those medians, and the result is the mean over
    blocks. The host's speed changes in spells of seconds to minutes, and a
    median over the whole run would jump from one spell's level to the
    other's; the mean over blocks moves in proportion to the time spent in
    each, while a median within a block still ignores single stalls.
    """
    bounds, start, spent = [], 0, 0.0
    for end in range(cycle, len(latencies) + 1, cycle):
        spent += sum(latencies[end - cycle:end])
        if spent >= block_s:
            bounds.append((start, end))
            start, spent = end, 0.0
    if start < len(latencies):
        bounds[-1:] = [(bounds[-1][0] if bounds else start, len(latencies))]
    return statistics.fmean(
        statistics.fmean(statistics.median(latencies[lo + c:hi:cycle]) for c in range(cycle))
        for lo, hi in bounds
    )


def timed_loop(wl, first: int, seconds: float, min_ops: int, errors: list, tracer=None):
    """Run operations first, first+1, ... until ``seconds`` have passed.

    The loop ends after a whole number of passes over the inputs
    (``wl.cycle`` operations each) and after at least ``min_ops``. Returns
    (per-operation latencies, elapsed seconds); latencies are kept in a flat array so memory does not grow with the
    number of operations enough to move ``peak_rss_mb``.
    """
    latencies = array("d")
    i = first
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
        except Exception as exc:  # a failed operation, counted and reported
            t1 = time.perf_counter()
            if not errors:
                traceback.print_exc()
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            wl.keep(i, out)
        latencies.append(t1 - t0)
        i += 1
        done = i - first
        if t1 >= deadline and done >= min_ops and done % wl.cycle == 0:
            return latencies, time.perf_counter() - begin


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import gatefid

    source = (args.root / "src" / "gatefid").resolve()
    if Path(gatefid.__file__).resolve().parent != source:
        raise SystemExit(f"gatefid was imported from {gatefid.__file__}, not from {source}")
    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, args.workdir, args.root)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy

    import layers
    import tracing

    wl.warm_up()
    if tracing.traced_bindings():
        raise SystemExit("tracer wrappers are bound before the untraced run")
    seconds = args.seconds / 2 if args.trace else args.seconds
    errors: list[str] = []
    latencies, elapsed = timed_loop(wl, 0, seconds, TAIL_BEYOND + 1, errors)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracing.traced_bindings():
        raise SystemExit("tracer wrappers were bound during the untraced run")
    untraced_ops = len(latencies)
    pct, tail = tail_percentile(latencies)
    result = {
        "ready": ready,
        "gatefid": gatefid.__version__,
        "numpy": numpy.__version__,
        "ops": untraced_ops,
        "elapsed_s": elapsed,
        "ops_per_s": untraced_ops / elapsed,
        "latency_p50_ms": median_latency(latencies, wl.cycle) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_percentile": pct,
        "tail_samples_beyond": TAIL_BEYOND,
        "peak_rss_mb": rss_kb / 1024,
    }

    if args.trace:
        tracer = tracing.Tracer(layers.HOOKS)
        tracer.install()
        try:
            traced, traced_elapsed = timed_loop(wl, untraced_ops, seconds, wl.cycle, errors, tracer)
        finally:
            tracer.remove()
        if tracing.traced_bindings():
            raise SystemExit("tracer left wrappers bound after remove()")
        result["traced_ops"] = len(traced)
        result["trace_overhead"] = result["ops_per_s"] / (len(traced) / traced_elapsed)
        stats = tracing.aggregate(tracer)
        if args.spans is not None:
            tracer.write(args.spans)

    outcome = wl.check()
    if args.trace:
        values = layers.layer_metrics(
            stats, tracer.counters, len(traced), wl.samples_per_op, outcome.counts, result["trace_overhead"]
        )
        result["layers"] = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    result.update(
        attempted=untraced_ops + result.get("traced_ops", 0),
        failed=len(errors) + outcome.failed,
        notes=errors[:20] + outcome.notes,
        known_defects=outcome.defects,
        counts=outcome.counts,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
