"""Per-layer metrics derived from the traced run's spans and counters.

Times named ``.us``/``.ms`` are the mean inclusive duration of one call;
``self_ms`` is self time (duration minus the child spans) per operation.
A metric whose function the workload never calls reads 0.
"""

from __future__ import annotations

import os

from tracing import SpanStats
from workloads import VERIFY_CHECKS

MOMENT_FUNCTIONS = ("variance", "avg_fidelity", "gate_moments", "kraus_avg_fidelity", "conditional_fidelity")

PER_LAYER = (
    [
        ("sampling.states_per_sample", "count", "lower"),
        ("sampling.sample_states.ns_per_state", "ns", "lower"),
        ("sampling.mc_histogram.self_ms", "ms", "lower"),
        ("sampling.mc_moment.self_ms", "ms", "lower"),
    ]
    + [(f"moments.{f}.us", "us", "lower") for f in MOMENT_FUNCTIONS]
    + [(f"moments.{f}.calls_per_op", "count", "lower") for f in MOMENT_FUNCTIONS]
    + [
        ("linalg.as_matrix.calls_per_op", "count", "lower"),
        ("linalg.classify.calls_per_op", "count", "lower"),
        ("linalg.classify.us", "us", "lower"),
        ("linalg.eig2_normal.us", "us", "lower"),
        ("qubit_dist.normal_pdf.us", "us", "lower"),
        ("qubit_dist.quadrature_moments.us", "us", "lower"),
        ("qubit_dist.compare_histogram.ms", "ms", "lower"),
        ("optimize.evaluations_per_tune", "count", "lower"),
        ("optimize.probe_us", "us", "lower"),
        ("optimize.self_share", "ratio", "lower"),
    ]
    + [(f"verify.{c}.ms", "ms", "lower") for c in VERIFY_CHECKS]
    + [
        ("verify.check_pass_ratio", "ratio", "higher"),
        ("moments.variance.near_unitary_misses", "count", "lower"),
        ("serialize.load_matrix.ms", "ms", "lower"),
        ("serialize.write_histogram_csv.ms", "ms", "lower"),
        ("serialize.bytes_written_per_op", "bytes", "lower"),
        ("cli.self_ms", "ms", "lower"),
        ("trace_overhead", "ratio", "lower"),
    ]
)


def _count_states(counters, args, kwargs, result):
    counters["states"] = counters.get("states", 0) + len(result)


def _count_bytes(counters, args, kwargs, result):
    path = kwargs.get("path", args[-1])
    counters["bytes_written"] = counters.get("bytes_written", 0) + os.path.getsize(path)


HOOKS = {
    "sampling.sample_states": _count_states,
    "serialize.write_histogram_csv": _count_bytes,
    "serialize.write_density_csv": _count_bytes,
    "serialize.write_trace_csv": _count_bytes,
    "serialize.save_matrix": _count_bytes,
    "serialize.save_kraus": _count_bytes,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    stats: dict[str, SpanStats],
    counters: dict,
    ops: int,
    samples_per_op: int,
    counts: dict,
    overhead: float,
) -> dict[str, float]:
    """Every PER_LAYER metric; ``counts`` are the output checks' counts."""

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def mean_call(name: str, scale: float) -> float:
        st = get(name)
        return _ratio(st.total_ns, st.calls) / scale

    def self_per_op_ms(name: str) -> float:
        return _ratio(get(name).self_ns, ops) / 1e6

    states = counters.get("states", 0)
    tuner = get("optimize.optimize")
    out = {
        "sampling.states_per_sample": _ratio(states, ops * samples_per_op),
        "sampling.sample_states.ns_per_state": _ratio(get("sampling.sample_states").self_ns, states),
        "sampling.mc_histogram.self_ms": self_per_op_ms("sampling.mc_histogram"),
        "sampling.mc_moment.self_ms": self_per_op_ms("sampling.mc_moment"),
    }
    for f in MOMENT_FUNCTIONS:
        out[f"moments.{f}.us"] = mean_call(f"moments.{f}", 1e3)
        out[f"moments.{f}.calls_per_op"] = _ratio(get(f"moments.{f}").calls, ops)
    out.update(
        {
            "linalg.as_matrix.calls_per_op": _ratio(get("linalg.as_matrix").calls, ops),
            "linalg.classify.calls_per_op": _ratio(get("linalg.classify").calls, ops),
            "linalg.classify.us": mean_call("linalg.classify", 1e3),
            "linalg.eig2_normal.us": mean_call("linalg.eig2_normal", 1e3),
            "qubit_dist.normal_pdf.us": mean_call("qubit_dist.normal_pdf", 1e3),
            "qubit_dist.quadrature_moments.us": mean_call("qubit_dist.quadrature_moments", 1e3),
            "qubit_dist.compare_histogram.ms": mean_call("qubit_dist.compare_histogram", 1e6),
            "optimize.evaluations_per_tune": _ratio(get("optimize.evaluate_objective").calls, tuner.calls),
            "optimize.probe_us": mean_call("optimize.evaluate_objective", 1e3),
            "optimize.self_share": _ratio(tuner.self_ns, tuner.total_ns),
        }
    )
    for c in VERIFY_CHECKS:
        out[f"verify.{c}.ms"] = mean_call(f"verify.check_{c}", 1e6)
    out.update(
        {
            "verify.check_pass_ratio": _ratio(counts.get("checks_passed", 0), counts.get("checks_run", 0)),
            "moments.variance.near_unitary_misses": counts.get("near_unitary_variance_misses", 0),
            "serialize.load_matrix.ms": mean_call("serialize.load_matrix", 1e6),
            "serialize.write_histogram_csv.ms": mean_call("serialize.write_histogram_csv", 1e6),
            "serialize.bytes_written_per_op": _ratio(counters.get("bytes_written", 0), ops),
            "cli.self_ms": self_per_op_ms("cli.main"),
            "trace_overhead": overhead,
        }
    )
    return out
