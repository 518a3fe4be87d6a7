"""Core of the outside-in benchmark: items, timed passes, correctness, metrics.

A workload is a list of items built from a seed.  Each item has a timed
``call(ctx)`` that goes through instantform's public API and an untimed
``check(outcome, results)`` that returns None when the item kept its
documented contract and a short reason otherwise.  Items run one at a time
in a closed loop; a pass runs the whole list once, and passes repeat while
another one still fits in the requested seconds.

This module imports numpy and the standard library only, so that the fresh
processes that time set-up measure instantform's imports and not ours.
"""

import bisect
import collections
import contextlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
# Every run's inputs and cli outputs stay here when it ends (about 11 MB per
# cli-batch run).  Deleting them slowed file creation for minutes on the ext4
# disk (online discard) this is tuned on: deleting 67 000 files made each
# later cli artifact set 4x slower, and while each cli-batch run deleted its
# outputs at its end, light cli items grew 3-4 ms slower over ten
# consecutive runs and rejected configs, which write nothing, did not.
WORK_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"

# workload name -> module under perfbench/ that builds its items
WORKLOADS = {
    "cli-batch": "wl_cli",
    "spectrum": "wl_spectrum",
    "kinematics": "wl_kinematics",
}

# Seed of the fixed item set whose answers were recorded in reference.json.
REF_SEED = 0
# Relative tolerance on recorded reference answers: room for last-ulp and
# reordered-arithmetic changes, far below any physical tolerance.
REF_RTOL = 1e-8
SETUP_PROCESSES = 5
MIN_PASSES = 1
# Output directories are never reused, so no cli call replaces or deletes
# an earlier call's files (see WORK_ROOT).
_FRESH = itertools.count(1)
# Machine-speed calibration (see Speedometer): every timed figure of the
# untraced run but setup_s is reported at the speed at which each item's
# kernel takes CAL_REF_S[kernel].
CAL_REF_S = {"interpreter": 0.0025, "blas": 0.003}
CAL_EVERY_S = 0.05       # a kernel sample before the next item once this has passed
CAL_WINDOW = 9           # samples whose median gives the speed around an attempt


@dataclass
class Item:
    """One unit of work.  ``units`` holds the sizes and tags per-layer ratios
    use (steps, scheme, samples, nodes, frames, spectrum_n, cli)."""

    klass: str
    call: object
    check: object
    units: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # name -> text written before timing
    partner: int = -1
    id: int = -1
    repeats: int = 1      # attempts per timed pass, for items cheap enough
    kernel: str = "interpreter"   # Speedometer kernel that does this item's kind of work


@dataclass
class Result:
    item: Item
    seconds: float
    outcome: object
    reason: object = None          # None when the item kept its contract
    start: float = 0.0             # perf_counter when the call began


def load_workload(name):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return importlib.import_module(WORKLOADS[name])


def build_items(module, seed):
    """Build a workload's items and number them in run order."""
    items = module.build(seed)
    for i, item in enumerate(items):
        item.id = i
    return items


def class_mix(items):
    return dict(sorted(collections.Counter(item.klass for item in items).items()))


def shuffle_pairs(rng, groups):
    """Interleave groups of items (a group keeps its order) and set partners.

    A group of two is a pair whose checks compare against each other.
    """
    order = rng.permutation(len(groups))
    items = []
    for g in order:
        group = groups[g]
        base = len(items)
        for k, item in enumerate(group):
            if len(group) == 2:
                item.partner = base + 1 - k
            items.append(item)
    return items


def tail_percentile(n_per_pass):
    """Highest whole percentile with at least ten items of one pass beyond it
    (the median of lists too short to have one)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n_per_pass)))


class Context:
    """What an item's call may use: a scratch directory and, in the traced
    run, the tracer that wraps callables handed to the library."""

    def __init__(self, workdir, tracer=None):
        self.workdir = Path(workdir)
        self.tracer = tracer

    def wrap(self, fn, name):
        return fn if self.tracer is None else self.tracer.wrap(fn, name)

    def worldline(self, w):
        if self.tracer is None:
            return w
        import dataclasses

        return dataclasses.replace(w, position=self.wrap(w.position, "radar.worldline.position"))

    def embedding(self, emb):
        if self.tracer is None:
            return emb
        from instantform import foliation

        return foliation.Embedding(
            self.wrap(lambda tau, sigma: emb(tau, sigma), "foliation.embedding.z"),
            jacobian=self.wrap(lambda tau, sigma: emb.jacobian(tau, sigma),
                               "foliation.embedding.jacobian"),
            name=emb.name,
            fd_step=emb.fd_step,
        )

    def fresh_dir(self):
        return str(self.workdir / "out" / f"r{next(_FRESH)}")


def materialize(items, workdir):
    """Write the files items read (CLI configs) into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    for item in items:
        for name, text in item.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def judge(result, by_id):
    """Set result.reason from the item's check; never raises."""
    if result.reason is not None:
        return result
    try:
        result.reason = result.item.check(result.outcome, by_id)
    except Exception as exc:  # a broken expectation is a failed item, not a crash
        result.reason = f"check raised {type(exc).__name__}: {exc}"
    return result


def run_pass(items, ctx, speed=None):
    """Run every item once, timing each call; then check every outcome.

    With a Speedometer, the machine speed is sampled between items."""
    results = []
    tracer = ctx.tracer
    clock = time.perf_counter
    for item in items:
        call = item.call if tracer is None else tracer.item_call(item)
        if speed is not None:
            speed.tick()
        t0 = clock()
        try:
            outcome, reason = call(ctx), None
        except Exception as exc:  # an item must not end the run
            outcome, reason = None, f"uncaught {type(exc).__name__}: {exc}"
        results.append(Result(item, clock() - t0, outcome, reason, t0))
    by_id = {r.item.id: r for r in results}
    for r in results:
        judge(r, by_id)
    return results


def timed_passes(items, ctx, seconds):
    """Passes while another one still fits in ``seconds``, and at least
    MIN_PASSES; (the results of each pass, the Speedometer read between
    items).

    Each pass runs every item ``repeats`` times in a fresh seeded order.
    """
    order = [item for item in items for _ in range(item.repeats)]
    speed = Speedometer({item.kernel for item in items})
    speed.warm_up()
    by_pass = []
    start = time.perf_counter()
    while True:
        random.Random(len(by_pass)).shuffle(order)
        p0 = time.perf_counter()
        done = run_pass(order, ctx, speed)
        for r in done:
            r.outcome = None  # checked already; kept answers would grow peak RSS per pass
        by_pass.append(done)
        now = time.perf_counter()
        if len(by_pass) >= MIN_PASSES and now - start + (now - p0) > seconds:
            break
    speed.sample()  # the attempts of the last items have samples after them too
    return by_pass, speed


def item_times(items, by_pass, scale):
    """(each item's latency, items_per_s of each pass), every attempt's time
    taken as ``scale(result)``.

    An item's latency is the median over all its attempts in the run, so a
    cost that comes with some calls only moves it once it hits half of them.
    A pass's items_per_s is the item count over the sum of each item's mean
    attempt time in that pass: every attempt's cost counts, and the list
    keeps its mix however many attempts an item makes.
    """
    attempts = {item.id: [] for item in items}
    throughput = []
    for done in by_pass:
        in_pass = collections.defaultdict(list)
        for r in done:
            t = scale(r)
            in_pass[r.item.id].append(t)
            attempts[r.item.id].append(t)
        throughput.append(len(items) / sum(statistics.fmean(t) for t in in_pass.values()))
    return [statistics.median(attempts[item.id]) for item in items], throughput


class Speedometer:
    """Speed of the machine, read from fixed kernels between items.

    The shared host this benchmark is tuned on runs the same code up to 1.6x
    slower in spells of seconds to minutes, and a whole run can fall into
    one.  The kernels share no code with instantform, so a change to the
    program does not move them.  An attempt's time is scaled by its kernel's
    CAL_REF_S over the median time of that kernel in the CAL_WINDOW samples
    around it: every attempt still counts, at the speed at which the kernel
    takes CAL_REF_S.

    Interpreter-bound and BLAS-bound code slow differently in the same
    spell, so each item names the kernel that does its kind of work:
    ``interpreter`` (arithmetic, small numpy calls, a 48x48 eigensolve) by
    default, ``blas`` (a one-thread 384x384 matrix product) for spectra.
    Scaled by the interpreter kernel, n = 2048 spectra spread twice as wide
    as unscaled; by the matrix product, narrower.
    """

    def __init__(self, kinds):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.normal(size=(48, 48))
        self._sym = a + a.T
        self._vec = rng.normal(size=3)
        self._mat = rng.normal(size=(384, 384))
        kernels = {"interpreter": self._interpreter, "blas": self._blas}
        self._kernels = {kind: kernels[kind] for kind in sorted(kinds)}
        self.starts = []
        self.times = {kind: [] for kind in self._kernels}
        self._due = 0.0

    def _interpreter(self):
        import numpy as np

        s = 0.0
        for i in range(800):
            s += (i * 0.5) ** 2 / (i + 1.0)
        v = self._vec
        for _ in range(50):
            v = 0.5 * np.cross(v, self._vec) + 0.25 * v
            s += float(v @ v)
        return s + float(np.linalg.eigvalsh(self._sym)[0])

    def _blas(self):
        return float((self._mat @ self._mat)[0, 0])

    def sample(self):
        self.starts.append(time.perf_counter())
        for kind, kernel in self._kernels.items():
            t0 = time.perf_counter()
            kernel()
            self.times[kind].append(time.perf_counter() - t0)
        self._due = time.perf_counter() + CAL_EVERY_S

    def warm_up(self, n=CAL_WINDOW):
        for _ in range(n):
            for kernel in self._kernels.values():
                kernel()
        for _ in range(n):
            self.sample()

    def tick(self):
        if time.perf_counter() >= self._due:
            self.sample()

    def factor(self, start, kind):
        """CAL_REF_S[kind] over the median time of that kernel around
        ``start``."""
        times = self.times[kind]
        j = bisect.bisect_right(self.starts, start)
        lo = max(0, min(j - CAL_WINDOW // 2, len(times) - CAL_WINDOW))
        return CAL_REF_S[kind] / statistics.median(times[lo:lo + CAL_WINDOW])

    def scale(self, result):
        return result.seconds * self.factor(result.start, result.item.kernel)

    def summary(self):
        return {kind: {"samples": len(t), "ref_s": CAL_REF_S[kind],
                       "median_s": statistics.median(t), "min_s": min(t), "max_s": max(t)}
                for kind, t in self.times.items()}


def is_known(result, known_defects):
    """True when ``result`` failed the way its class's known defect fails
    today: the class is listed and the reason starts with the recorded
    prefix."""
    prefix = known_defects.get(result.item.klass)
    return prefix is not None and result.reason is not None and result.reason.startswith(prefix)


def failures(results, known_defects):
    """(failed results, unexpected failures).  A known defect fails without
    making the run incorrect, but only in the way it fails today."""
    failed = [r for r in results if r.reason is not None]
    unexpected = [r for r in failed if not is_known(r, known_defects)]
    return failed, unexpected


def summarize(results, known_defects):
    """Failed item classes -> count, a reason, and whether every failure of
    the class is its known defect (the reason shown is then an unexpected one)."""
    summary = {}
    for r in results:
        if r.reason is None:
            continue
        known = is_known(r, known_defects)
        info = summary.setdefault(r.item.klass, {"count": 0, "reason": r.reason,
                                                 "known_defect": known})
        info["count"] += 1
        if info["known_defect"] and not known:
            info.update(reason=r.reason, known_defect=False)
    return summary


def end_to_end(latencies, throughput, results, setup_s):
    """The six end-to-end metrics from per-item latencies (seconds, one per
    item of the list), the items_per_s of each pass, and every attempted
    result."""
    lat_ms = sorted(1e3 * t for t in latencies)
    n_failed = sum(r.reason is not None for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (statistics.median(throughput), "1/s"),
        "p50_ms": (percentile(lat_ms, 50), "ms"),
        "tail_ms": (percentile(lat_ms, tail_percentile(len(latencies))), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "pass_frac": ((len(results) - n_failed) / len(results), "ratio"),
    }


def percentile(sorted_values, q):
    """Linear-interpolation percentile, as numpy's default."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reference answers ---------------------------------------------------------


def fingerprint(value):
    """Compact, tolerance-comparable summary of an answer.

    Arrays become [shape, sum|x|, sum(w*x), first, last] with position weights
    w, which catches permutations and sign flips without storing every value.
    """
    import numpy as np

    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, dict):
        return {k: fingerprint(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)) and not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        return [fingerprint(v) for v in value]
    arr = np.asarray(value, dtype=float)
    if arr.size == 0:
        return {"shape": list(arr.shape)}
    flat = arr.ravel()
    w = 1.0 + np.arange(flat.size) % 7
    return {
        "shape": list(arr.shape),
        "abs": float(np.sum(np.abs(flat))),
        "wsum": float(np.sum(w * flat)),
        "first": float(flat[0]),
        "last": float(flat[-1]),
    }


def compare_fingerprint(new, ref, rtol=REF_RTOL, path="answer"):
    """Return None if ``new`` matches ``ref`` within rtol, else a reason."""
    if isinstance(ref, dict) and "shape" in ref:
        if not isinstance(new, dict) or new.get("shape") != ref["shape"]:
            return f"{path}: shape {new.get('shape') if isinstance(new, dict) else new} != {ref['shape']}"
        scale = ref.get("abs", 0.0)
        size = max(1, math.prod(ref["shape"]))
        for key in ("abs", "wsum", "first", "last"):
            if key not in ref:
                continue
            tol = rtol * (abs(ref[key]) + (scale if key in ("abs", "wsum") else scale / size))
            if not abs(new[key] - ref[key]) <= tol:
                return f"{path}.{key}: {new[key]!r} differs from reference {ref[key]!r}"
        return None
    if isinstance(ref, dict):
        if not isinstance(new, dict) or sorted(new) != sorted(ref):
            return f"{path}: keys differ from reference"
        for k in ref:
            why = compare_fingerprint(new[k], ref[k], rtol, f"{path}.{k}")
            if why:
                return why
        return None
    if isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            return f"{path}: length differs from reference"
        for k, (a, b) in enumerate(zip(new, ref)):
            why = compare_fingerprint(a, b, rtol, f"{path}[{k}]")
            if why:
                return why
        return None
    return None if new == ref else f"{path}: {new!r} != reference {ref!r}"


def reference_subset(items):
    """First item of every class, plus the partner its check needs."""
    seen, keep = set(), set()
    for item in items:
        if item.klass not in seen:
            seen.add(item.klass)
            keep.add(item.id)
            if item.partner >= 0:
                keep.add(item.partner)
    return [item for item in items if item.id in keep]


def reference_key(item, items):
    k = sum(1 for other in items[: item.id] if other.klass == item.klass)
    return f"{item.klass}#{k}"


def load_reference():
    path = BENCH_DIR / "reference.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_reference(module, name, ctx):
    """Run the reference item set untimed; (results, problems).

    Doubles as warm-up: caches fill and lazy imports finish before timing.
    """
    items = build_items(module, REF_SEED)
    subset = reference_subset(items)
    materialize(subset, ctx.workdir)
    results = run_pass(subset, ctx)
    recorded = load_reference().get(name, {})
    problems = []
    for r in results:
        if r.item.klass in module.KNOWN_DEFECTS:
            continue  # their answers are expected to change when fixed
        if r.reason is not None:
            problems.append(f"reference item {r.item.klass}: {r.reason}")
            continue
        key = reference_key(r.item, items)
        if key not in recorded:
            problems.append(f"no recorded reference answer for {key}")
            continue
        why = compare_fingerprint(fingerprint(module.answer(r.outcome)), recorded[key])
        if why:
            problems.append(f"{key}: {why}")
    return results, problems


# -- set-up time and environment -----------------------------------------------


def child_env():
    env = dict(os.environ)
    env.update(blas_env())
    return env


def blas_env():
    """One BLAS thread, within the cap of nproc: on the 2-core machine this
    is tuned on, a second thread made n = 512 spectra 1.6x slower and spread
    them 3x wider, since it contends with the harness's own thread."""
    return {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def measure_setup(workload, seed, workdir, n=SETUP_PROCESSES):
    """Median seconds from a fresh interpreter to the first item being ready.

    Not scaled by a Speedometer: kernel samples taken in this process before
    and after a child tracked the child's speed worse than none."""
    times = []
    for k in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_child.py"), workload, str(seed),
             str(Path(workdir) / f"setup-{k}")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
            cwd=str(ROOT),
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed for {workload}: {err.strip()[-400:]}")
        times.append(ready)
    return statistics.median(times), times


def measure_import_times(workload, n=3):
    """Median cumulative import time of instantform and of scipy.optimize,
    read from ``-X importtime`` in fresh processes."""
    module = WORKLOADS[workload]
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
        f"import {module}"
    )
    inst, opt = [], []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, env=child_env(), cwd=str(ROOT), timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        i_us, o_us = parse_importtime(proc.stderr)
        inst.append(i_us * 1e-6)
        opt.append(o_us * 1e-6)
    return statistics.median(inst), statistics.median(opt)


def parse_importtime(text):
    """(instantform us, scipy.optimize us) from -X importtime output.

    instantform sums the cumulative time of every instantform module not
    imported by another instantform module; scipy.optimize is its first
    import wherever it happens.  Children print before their parent, one
    level deeper, so walking the lines backwards keeps the ancestors on a
    stack.
    """
    rows = []
    for line in text.splitlines():
        parts = line[len("import time:"):].split("|") if line.startswith("import time:") else []
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    inst = opt = 0
    stack = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ours = name == "instantform" or name.startswith("instantform.")
        if ours and not any(a.startswith("instantform") for _, a in stack):
            inst += cumulative
        stack.append((depth, name))
    for depth, name, cumulative in rows:
        if name == "scipy.optimize":
            opt = cumulative
            break
    return inst, opt


def environment():
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": nproc(),
        "cpu_model": cpu,
        "blas_threads": blas_threads(),
        "blas_thread_env": blas_env(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    path = ROOT / ".git" / name
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    with contextlib.suppress(OSError):
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None
