"""Record the reference answers every benchmark run compares against.

    python3 perfbench/record_reference.py

Runs the reference item set (seed harness.REF_SEED, first item of every
class) of each workload and writes the fingerprints of their answers to
perfbench/reference.json.  Re-record only on purpose: a run whose answers
drift from the recorded ones by more than harness.REF_RTOL is incorrect.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402


def main():
    reference = {}
    for name in harness.WORKLOADS:
        module = harness.load_workload(name)
        items = harness.build_items(module, harness.REF_SEED)
        subset = harness.reference_subset(items)
        workdir = harness.WORK_ROOT / f"record-{os.getpid()}"
        try:
            harness.materialize(subset, workdir)
            results = harness.run_pass(subset, harness.Context(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        answers = {}
        for r in results:
            if r.item.klass in module.KNOWN_DEFECTS:
                continue
            if r.reason is not None:
                raise SystemExit(f"{name} {r.item.klass}: {r.reason}; not recording")
            answers[harness.reference_key(r.item, items)] = harness.fingerprint(
                module.answer(r.outcome))
        reference[name] = answers
        print(f"{name}: {len(answers)} answers")
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
