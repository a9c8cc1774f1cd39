"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gatefid  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import median_latency, tail_percentile  # noqa: E402


def _bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracing.package_modules()
        for attr, value in vars(mod).items()
    }


def test_install_wraps_every_binding_and_remove_restores_them():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        moments_mod = sys.modules["gatefid.moments"]
        optimize_mod = sys.modules["gatefid.optimize"]
        # Imported names, attribute calls and package re-exports are all wrapped,
        # including gatefid.optimize, which is the function, not the module.
        for fn in (
            moments_mod.as_matrix,
            moments_mod.variance,
            sys.modules["gatefid.cli"].optimize,
            optimize_mod.optimize,
            gatefid.optimize,
            gatefid.variance,
        ):
            assert getattr(fn, tracing.MARK, False)
        assert isinstance(optimize_mod, types.ModuleType)
        assert "gatefid.moments.variance" in tracing.traced_bindings()
        assert not getattr(gatefid.GateSpec, tracing.MARK, False)  # classes stay
        gatefid.variance(np.diag([1.0, 0.0]))
    finally:
        tracer.remove()
    assert tracing.traced_bindings() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "moments.variance"
    assert {"moments.avg_fidelity", "moments.fourth_moment_general", "linalg.as_matrix"} <= set(names)
    assert tracer.parent[0] == -1
    assert all(0 <= p < i for i, p in enumerate(tracer.parent) if i > 0)


def test_self_time_subtracts_direct_children_only():
    # parent [0, 100] has children [10, 30] (itself with a child [15, 25])
    # and [40, 70]; two overlapping children of one span count once.
    start = [0, 10, 15, 40, 80, 85]
    end = [100, 30, 25, 70, 95, 95]
    parent = [-1, 0, 1, 0, -1, 4]
    assert tracing.self_times(start, end, parent) == [50, 10, 10, 30, 5, 10]


def test_aggregate_with_a_fake_clock_and_package():
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + inner()\n"
        "def _private():\n    return 0\n",
        layer.__dict__,
    )
    for fn in (layer.inner, layer.outer, layer._private):
        fn.__module__ = "fakepkg.layer"
    sys.modules.update({"fakepkg": pkg, "fakepkg.layer": layer})
    ticks = iter(range(100))
    tracer = tracing.Tracer(
        hooks={"layer.inner": lambda c, a, k, r: c.update(n=c.get("n", 0) + r)},
        clock=lambda: next(ticks),
    )
    try:
        tracer.install(layers=("layer",), package="fakepkg")
        assert layer.outer() == 2
    finally:
        tracer.remove()
        del sys.modules["fakepkg"], sys.modules["fakepkg.layer"]
    stats = tracing.aggregate(tracer)
    assert "layer._private" not in stats
    assert (stats["layer.outer"].calls, stats["layer.outer"].total_ns, stats["layer.outer"].self_ns) == (1, 5, 3)
    assert (stats["layer.inner"].calls, stats["layer.inner"].total_ns) == (2, 2)
    assert tracer.counters == {"n": 2}


@pytest.mark.parametrize("n", [11, 12, 36, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n))
    pct, value = tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    if n == 1000:
        assert pct == pytest.approx(99.0)


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_median_latency_takes_each_input_apart_and_ignores_a_stall():
    # Two inputs alternate, 1 ms and 3 ms; one 3 ms operation stalls.
    lat = [0.001, 0.003] * 50
    lat[41] = 1.0
    assert median_latency(lat, 2, block_s=10.0) == pytest.approx(0.002)


def test_median_latency_follows_a_speed_step_in_proportion():
    # A 30/70 split between spells at 1 ms and 2 ms per operation, in
    # blocks of 0.1 s: the pooled median would read 2 ms.
    lat = [0.001] * 300 + [0.002] * 350
    assert statistics.median(lat) == 0.002
    blocks = [0.001] * 3 + [0.002] * 7
    assert median_latency(lat, 1, block_s=0.1) == pytest.approx(statistics.fmean(blocks))


def test_median_latency_joins_the_rest_to_the_last_block():
    assert median_latency([0.5, 0.5, 0.1], 1, block_s=1.0) == pytest.approx(0.5)
    assert median_latency([0.1, 0.2, 0.3], 1, block_s=10.0) == pytest.approx(0.2)


def test_oracle_worked_values():
    with oracle.precise():
        mean, second, var = oracle.fidelity_moments(oracle.to_mp(np.diag([1.0, 0.0])))
    assert (mean, second, var) == pytest.approx((1 / 3, 1 / 5, 4 / 45), rel=1e-15)


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
