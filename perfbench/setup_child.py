"""Fresh-process set-up probe: import what a workload calls, build its items
from the seed, write the files they read into <workdir>, then print READY.

    python3 perfbench/setup_child.py <workload> <seed> <workdir>

run.py times this from process start to the READY line, and deletes
<workdir> with the rest of its work directory when the run ends.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402


def main(workload, seed, workdir):
    module = harness.load_workload(workload)
    items = harness.build_items(module, int(seed))
    harness.materialize(items, workdir)
    print("READY", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:4])
