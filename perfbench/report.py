"""Run every workload untraced and traced; print all metrics and the ROADMAP
baseline table.

    python3 perfbench/report.py [--seed 1]

Every workload of BENCHMARK.json runs for its run_seconds, one at a time,
each in its own process (run.py caps BLAS threads at nproc).  The end-to-end metrics are printed by name with their
unit per workload; the baseline table (unit cost of each kernel) is the
median over the traced runs, every one of which runs the same unit-cost
probe.  The collected results go to .perfbench_out/report-seed<N>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

BASELINE = (
    ("check_admissibility", "foliation.check_admissibility.us_per_node", "us/node"),
    ("einstein_sync, resolved", "radar.einstein_sync.us_per_event.resolved", "us/event"),
    ("einstein_sync, refused", "radar.einstein_sync.us_per_event.refused", "us/event"),
    ("moller_tube_sample", "collective.moller_tube_sample.us_per_frame", "us/frame"),
    ("evolve coulomb", "restframe.evolve.us_per_step.explicit", "us/step"),
    ("evolve coulomb+darwin", "restframe.evolve.us_per_step.implicit", "us/step"),
    ("reconstruct_worldlines", "restframe.reconstruct_worldlines.us_per_sample", "us/sample"),
    ("radial_levels n=2048", "relquant.radial_levels.ms.n2048", "ms"),
    ("  of which build_radial_hamiltonian", "relquant.build_radial_hamiltonian.ms.n2048", "ms"),
    ("radial_levels n=4096", "relquant.radial_levels.ms.n4096", "ms"),
    ("  of which build_radial_hamiltonian", "relquant.build_radial_hamiltonian.ms.n4096", "ms"),
    ("import instantform", "setup.import.instantform_s", "s"),
    ("  of which scipy.optimize", "setup.import.scipy_optimize_s", "s"),
)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]

    results = {}
    for w in (w["name"] for w in bench["workloads"]):
        results[w] = {"untraced": run(w, args.seed, seconds, 0),
                      "traced": run(w, args.seed, seconds, 1)}

    print(f"end-to-end metrics, seed {args.seed}, {seconds} s per run")
    for w, res in results.items():
        r = res["untraced"]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:<14} {m['value']:>12.6g} {m['unit']}")
        print(f"  {'trace.overhead_frac':<14} "
              f"{res['traced']['metrics']['trace.overhead_frac']['value']:>12.4g} ratio")

    print(f"\nbaseline table: median of {len(results)} traced runs")
    for label, name, unit in BASELINE:
        value = statistics.median(res["traced"]["metrics"][name]["value"]
                                  for res in results.values())
        print(f"  {label:<38} {value:>12.4g} {unit}")

    out = ROOT / ".perfbench_out" / f"report-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"\nresults: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
