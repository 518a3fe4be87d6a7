"""Run one workload of the instantform benchmark and print its metrics.

    python3 perfbench/run.py --workload kinematics --seed 1 --seconds 25 --trace 0

Run from the root of an instantform checkout.  With ``--trace 0`` the run
measures the end-to-end metrics of BENCHMARK.json with tracing off; with
``--trace 1`` it makes one untraced and one traced pass over the same items,
then a traced pass over the unit-cost probe, and reports the per-layer
metrics.  Every line before the last is for people; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  A fuller
record (environment, class mix, failures, spans) goes to .perfbench_out/.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in ("src/instantform/__init__.py", "tests/oracles.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not an instantform checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import harness

    # fix the BLAS thread count before numpy is first imported
    os.environ.update(harness.blas_env())

    module = harness.load_workload(args.workload)
    items = harness.build_items(module, args.seed)
    mix = harness.class_mix(items)
    problems = []
    if harness.class_mix(harness.build_items(module, args.seed + 1)) != mix:
        problems.append("seed+1 gives another item count or class mix")

    # kept when the run ends: see harness.WORK_ROOT
    harness.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=harness.WORK_ROOT))
    harness.OUT_ROOT.mkdir(exist_ok=True)
    harness.materialize(items, workdir)
    if args.trace:
        record = traced_run(harness, module, args, items, workdir, problems)
    else:
        record = untraced_run(harness, module, args, items, workdir, problems)

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  class_mix=mix, items_per_pass=len(items),
                  tail_percentile=harness.tail_percentile(len(items)),
                  environment=harness.environment(), problems=problems)
    out = harness.OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(items)} items per pass, tail_ms = p{record['tail_percentile']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for klass, info in sorted(record["failures"].items()):
        known = " (known defect)" if info["known_defect"] else ""
        print(f"  failed {info['count']} x {klass}{known}: {info['reason']}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


def metrics_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def untraced_run(harness, module, args, items, workdir, problems):
    setup_s, setup_samples = harness.measure_setup(args.workload, args.seed, workdir)
    _, ref_problems = harness.check_reference(module, args.workload,
                                              harness.Context(workdir / "ref"))
    problems.extend(ref_problems)
    by_pass, speed = harness.timed_passes(items, harness.Context(workdir), args.seconds)
    results = [r for done in by_pass for r in done]
    latencies, throughput = harness.item_times(items, by_pass, speed.scale)
    metrics = harness.end_to_end(latencies, throughput, results, setup_s)
    unscaled = harness.end_to_end(*harness.item_times(items, by_pass, lambda r: r.seconds),
                                  results, setup_s)
    failed, unexpected = harness.failures(results, module.KNOWN_DEFECTS)
    return {
        "correct": not unexpected and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics_json(metrics),
        "failures": harness.summarize(results, module.KNOWN_DEFECTS),
        "passes": len(by_pass),
        "item_latency_s": {f"{i.id}:{i.klass}": t for i, t in zip(items, latencies)},
        "items_per_s_by_pass": throughput,
        "setup_samples_s": setup_samples,
        "speedometer": speed.summary(),
        "unscaled": {k: unscaled[k][0] for k in ("items_per_s", "p50_ms", "tail_ms")},
    }


def traced_run(harness, module, args, items, workdir, problems):
    import probe
    import tracing

    import_times = harness.measure_import_times(args.workload)
    _, ref_problems = harness.check_reference(module, args.workload,
                                              harness.Context(workdir / "ref"))
    problems.extend(ref_problems)
    probe_items = probe.build()
    harness.materialize(probe_items, workdir / "probe")
    tracer = tracing.Tracer()
    untraced = harness.run_pass(items, harness.Context(workdir))
    with tracer.installed():
        traced = harness.run_pass(items, harness.Context(workdir, tracer))
        probed = harness.run_pass(probe_items, harness.Context(workdir / "probe", tracer))
    base = sum(r.seconds for r in untraced)
    overhead = sum(r.seconds for r in traced) / base - 1.0
    metrics = tracing.layer_metrics(tracer.spans, traced + probed, import_times, overhead)
    tracer.write(harness.OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    _, unexpected = harness.failures(untraced + traced, module.KNOWN_DEFECTS)
    _, probe_unexpected = harness.failures(probed, probe.KNOWN_DEFECTS)
    failures = harness.summarize(traced, module.KNOWN_DEFECTS)
    failures.update({f"probe:{k}": v for k, v in harness.summarize(probed, probe.KNOWN_DEFECTS).items()})
    return {
        "correct": not unexpected and not probe_unexpected and not problems,
        "attempted": len(traced),
        "failed": sum(r.reason is not None for r in traced),
        "metrics": metrics_json(metrics),
        "failures": failures,
        "untraced_s": base,
        "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
