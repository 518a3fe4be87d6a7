"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _smoke_items(workload, seed=3):
    """Run the tiny smoke set: first item of every class (plus partners)."""
    module = harness.load_workload(workload)
    items = harness.reference_subset(harness.build_items(module, seed))
    return module, items


def test_metric_names_match_benchmark_json(tmp_path):
    module, items = _smoke_items("kinematics")
    ctx = harness.Context(tmp_path)
    results = harness.run_pass(items, ctx)
    e2e = harness.end_to_end([r.seconds for r in results], [10.0], results, 0.5)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in e2e.items()} == declared

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = harness.run_pass(items, harness.Context(tmp_path, tracer))
    finally:
        tracer.uninstall()
    layer = tracing.layer_metrics(tracer.spans, traced, (0.1, 0.05), 0.01)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in layer.items()} == declared

    names = [w["name"] for w in BENCHMARK["workloads"]] + list(e2e) + list(layer)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_run_passes_its_checks(workload, tmp_path):
    module, items = _smoke_items(workload)
    harness.materialize(items, tmp_path)
    results = harness.run_pass(items, harness.Context(tmp_path))
    failed, unexpected = harness.failures(results, module.KNOWN_DEFECTS)
    assert not unexpected, [(r.item.klass, r.reason) for r in unexpected]
    assert {r.item.klass for r in failed} <= set(module.KNOWN_DEFECTS)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_second_seed_gives_same_counts_and_mix(workload):
    module = harness.load_workload(workload)
    a = harness.class_mix(harness.build_items(module, 11))
    b = harness.class_mix(harness.build_items(module, 12))
    assert a == b and sum(a.values()) == sum(b.values())


def test_wrong_expectation_counts_as_failure(tmp_path):
    module, items = _smoke_items("spectrum")
    items[0].check = lambda levels, results: "tolerance: deliberately wrong expectation"

    def raising_check(levels, results):
        raise AssertionError("expectation that blows up")

    def raising_call(ctx):
        raise ValueError("item that blows up")

    items[1].check = raising_check
    items[2].call = raising_call
    results = harness.run_pass(items, harness.Context(tmp_path))
    reasons = [r.reason for r in results[:3]]
    assert reasons[0] == "tolerance: deliberately wrong expectation"
    assert reasons[1].startswith("check raised AssertionError")
    assert reasons[2].startswith("uncaught ValueError")
    e2e = harness.end_to_end([0.01] * len(items), [100.0], results, 0.5)
    assert e2e["pass_frac"][0] == pytest.approx(1 - 3 / len(items))


def test_known_defect_counts_only_with_its_recorded_reason(tmp_path):
    module, items = _smoke_items("kinematics")
    near = next(i for i in items if i.klass in module.KNOWN_DEFECTS)
    results = harness.run_pass([near], harness.Context(tmp_path))
    assert harness.failures(results, module.KNOWN_DEFECTS)[1] == []
    results[0].reason = "tolerance: tau off closed form by 1.0e-03"
    failed, unexpected = harness.failures(results, module.KNOWN_DEFECTS)
    assert failed == unexpected == results
    assert not harness.summarize(results, module.KNOWN_DEFECTS)[near.klass]["known_defect"]


def test_latency_is_the_median_over_attempts(tmp_path, monkeypatch):
    module, items = _smoke_items("spectrum")
    items = items[:1]
    items[0].repeats = 3

    def run_pass(order, ctx, speed):  # three attempts of 1.0, 0.5 and 1.0 s
        return [harness.Result(item, d, None) for item, d in zip(order, (1.0, 0.5, 1.0))]

    monkeypatch.setattr(harness, "run_pass", run_pass)
    monkeypatch.setattr(harness, "MIN_PASSES", 1)
    by_pass, _ = harness.timed_passes(items, None, 0.0)
    assert len(by_pass) == 1 and len(by_pass[0]) == 3
    latencies, throughput = harness.item_times(items, by_pass, lambda r: r.seconds)
    assert latencies == [1.0]
    assert throughput == [pytest.approx(1 / (2.5 / 3))]


def test_speedometer_scales_by_the_kernel_time_around_an_attempt():
    speed = harness.Speedometer(harness.CAL_REF_S)
    window = harness.CAL_WINDOW
    # a spell at the reference speed, then one where the interpreter kernel
    # runs twice as slow and the blas kernel four times
    speed.starts = [float(t) for t in range(4 * window)]
    for kind, slow in (("interpreter", 2.0), ("blas", 4.0)):
        ref = harness.CAL_REF_S[kind]
        speed.times[kind] = [ref] * (2 * window) + [slow * ref] * (2 * window)
    item = harness.Item("x", None, None, kernel="blas")

    def scaled(start, kernel):
        item.kernel = kernel
        return speed.scale(harness.Result(item, 0.1, None, start=start))

    assert scaled(window + 0.5, "interpreter") == pytest.approx(0.1)
    assert scaled(3 * window + 0.5, "interpreter") == pytest.approx(0.05)
    assert scaled(3 * window + 0.5, "blas") == pytest.approx(0.025)
    assert scaled(1e9, "blas") == pytest.approx(0.025)  # after the last sample
    speed.sample()
    assert len(speed.starts) == 4 * window + 1
    assert all(len(t) == 4 * window + 1 and t[-1] > 0 for t in speed.times.values())


def test_every_item_names_a_speed_kernel():
    for name in harness.WORKLOADS:
        items = harness.build_items(harness.load_workload(name), 1)
        assert {item.kernel for item in items} <= set(harness.CAL_REF_S)
    assert {item.kernel for item in harness.build_items(harness.load_workload("spectrum"), 1)} == {"blas"}


def test_no_wrapper_left_after_traced_run(tmp_path):
    before = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in tracing.targets()]
    module, items = _smoke_items("kinematics")
    tracer = tracing.Tracer()
    tracer.install()
    assert tracing.installed_wrappers()
    try:
        harness.run_pass(items, harness.Context(tmp_path, tracer))
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)
    assert tracer.spans, "the traced pass recorded no spans"
    names = {s.name for s in tracer.spans}
    assert {"radar.einstein_sync", "radar.worldline.position", "radar.brentq",
            "foliation.embedding.jacobian", "minkowski.boost_from_h"} <= names


def test_importtime_parser_counts_outermost_instantform_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.optimize._x",
        "import time:       200 |        300 |     scipy.optimize",
        "import time:       400 |        700 |   instantform.radar",
        "import time:        50 |        800 | instantform",
        "import time:        30 |         30 | instantform.cli",
        "import time:        10 |         10 | json",
    ])
    assert harness.parse_importtime(text) == (830, 300)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
