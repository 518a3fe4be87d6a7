"""Spans around calls into instantform's layers, for the traced run only.

``Tracer.install`` replaces every public function of the eight layer modules
at the module attribute its callers look up -- including names one module
imported from another, such as ``instantform.collective.boost_from_h`` -- with
a wrapper that records a span.  ``Tracer.uninstall`` puts every original
back and verifies it.  Callables the harness hands to the library (worldline
``position``, embedding ``z`` and ``jacobian``) are wrapped through
``harness.Context``.  Spans stay in memory and are written out at the end.
Items of the large spectra also record the tracemalloc peak of their call.
"""

import contextlib
import importlib
import inspect
import json
import time
import tracemalloc

LAYERS = ("minkowski", "foliation", "radar", "potentials", "collective",
          "restframe", "relquant", "cli")
# third-party callables a layer calls through its own namespace
EXTERNAL = {("radar", "brentq"): "radar.brentq", ("relquant", "eigh"): "relquant.eigh"}
# spectrum sizes whose item spans record the peak memory allocated by the call
MEMORY_N = (2048, 4096)


class Span:
    __slots__ = ("parent", "name", "item", "start", "end", "error", "peak_bytes")

    def __init__(self, parent, name, item, start):
        self.parent = parent
        self.name = name
        self.item = item
        self.start = start
        self.end = start
        self.error = None
        self.peak_bytes = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None          # Item whose call is running
        self._installed = []      # (module, attribute, original)

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(stack[-1] if stack else -1, name, self.item, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.span_name = name
        return traced

    def item_call(self, item):
        traced = self.wrap(item.call, "item")
        if item.units.get("spectrum_n") not in MEMORY_N:
            def call(ctx):
                self.item = item
                return traced(ctx)

            return call

        def call_measuring_memory(ctx):
            # numpy reports its array buffers to tracemalloc, so the peak
            # covers the Hamiltonian, the sine matrix and the solver's work arrays
            self.item = item
            sid = len(self.spans)  # the item span ``traced`` opens
            tracemalloc.start()
            try:
                return traced(ctx)
            finally:
                self.spans[sid].peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return call_measuring_memory

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for mod, attr, name in targets():
            original = getattr(mod, attr)
            setattr(mod, attr, self.wrap(original, name))
            self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """One JSON array per span: [id, parent, name, item id, item class,
        start, end, error, peak bytes]."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                item = s.item
                fh.write(json.dumps([sid, s.parent, s.name,
                                     None if item is None else item.id,
                                     None if item is None else item.klass,
                                     s.start, s.end, s.error, s.peak_bytes]) + "\n")


def targets():
    """(module, attribute, span name) for every public function of a layer,
    wherever a layer module holds a reference to it."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module("instantform." + layer)
        for attr, val in sorted(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if (layer, attr) in EXTERNAL:
                out.append((mod, attr, EXTERNAL[(layer, attr)]))
            elif inspect.isfunction(val) and val.__module__.startswith("instantform."):
                home = val.__module__.rsplit(".", 1)[1]
                out.append((mod, attr, f"{home}.{val.__name__}"))
    return out


def installed_wrappers():
    """Names of layer attributes that are currently tracing wrappers."""
    return [f"{mod.__name__}.{attr}" for mod, attr, _ in targets()
            if hasattr(getattr(mod, attr), "span_name")]


# -- per-layer metrics from spans ------------------------------------------------


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        child = [0.0] * len(spans)
        for sid, s in enumerate(spans):
            self.by_name.setdefault(s.name, []).append(sid)
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self.self_time = [s.end - s.start - child[i] for i, s in enumerate(spans)]
        self._anc = {}

    def ids(self, name):
        return self.by_name.get(name, [])

    def ancestor(self, target):
        """anc[i] = nearest ancestor of span i named ``target``, or -1."""
        if target not in self._anc:
            anc = [-1] * len(self.spans)
            for sid, s in enumerate(self.spans):
                p = s.parent
                if p >= 0:
                    anc[sid] = p if self.spans[p].name == target else anc[p]
            self._anc[target] = anc
        return self._anc[target]

    def under(self, name, target):
        """Ids of spans called ``name`` with an ancestor called ``target``."""
        anc = self.ancestor(target)
        return [sid for sid in self.ids(name) if anc[sid] >= 0]

    def dur(self, sid):
        s = self.spans[sid]
        return s.end - s.start


def _div(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, results, import_times, overhead_frac):
    """Every per-layer metric of BENCHMARK.json, as name -> (value, unit)."""
    ix = SpanIndex(spans)
    m = {}
    m["setup.import.instantform_s"] = (import_times[0], "s")
    m["setup.import.scipy_optimize_s"] = (import_times[1], "s")

    def mean(name, scale):
        ids = ix.ids(name)
        return _div(scale * sum(ix.dur(i) for i in ids), len(ids))

    def per_unit(anchor, unit, numerator, pred=lambda item: True):
        """Sum of ``numerator(span id)`` over anchor spans in items that carry
        ``unit``, divided by the sum of that unit over the same spans (each
        anchor span is one call of its item)."""
        num = den = 0.0
        for sid in ix.ids(anchor):
            item = ix.spans[sid].item
            if item is not None and unit in item.units and pred(item):
                num += numerator(sid)
                den += item.units[unit]
        return _div(num, den)

    def count_under(name, anchor):
        anc = ix.ancestor(anchor)
        per_anchor = {}
        for sid in ix.ids(name):
            if anc[sid] >= 0:
                per_anchor[anc[sid]] = per_anchor.get(anc[sid], 0) + 1
        return per_anchor

    # cli
    m["cli.parse_config.us"] = (mean("cli.parse_config", 1e6), "us")
    runs = ix.ids("cli.run")
    m["cli.run.self_ms"] = (_div(1e3 * sum(ix.self_time[i] for i in runs), len(runs)), "ms")
    sizes = [r.outcome.artifact_bytes for r in results
             if getattr(r.outcome, "artifact_bytes", None)]
    m["cli.artifact_bytes"] = (_div(sum(sizes), len(sizes)), "bytes")
    m["cli.exit_mismatch"] = (sum(
        1 for r in results if "cli" in r.item.units and r.reason
        and r.reason.startswith(("exit", "uncaught"))), "count")

    # restframe / potentials
    evolve = "restframe.evolve"
    for scheme in ("explicit", "implicit"):
        def is_scheme(item, scheme=scheme):
            return item.units.get("scheme") == scheme
        m[f"restframe.evolve.us_per_step.{scheme}"] = (
            per_unit(evolve, "steps", lambda i: 1e6 * ix.dur(i), is_scheme), "us")
        grads = count_under("potentials.relative_potential_gradients", evolve)
        m[f"potentials.relative_potential_gradients.calls_per_step.{scheme}"] = (
            per_unit(evolve, "steps", lambda i: grads.get(i, 0), is_scheme), "count")
    sweeps = [r.outcome.traj.meta.get("max_fixed_point_sweeps", 0) for r in results
              if hasattr(r.outcome, "traj")]
    m["restframe.evolve.fp_sweeps_max"] = (max(sweeps, default=0), "count")
    m["potentials.relative_potential_gradients.us_per_call"] = (
        mean("potentials.relative_potential_gradients", 1e6), "us")
    hams = count_under("restframe.invariant_mass_hamiltonian", evolve)
    m["restframe.invariant_mass_hamiltonian.calls_per_step"] = (
        per_unit(evolve, "steps", lambda i: hams.get(i, 0)), "count")
    m["restframe.reconstruct_worldlines.us_per_sample"] = (
        per_unit("restframe.reconstruct_worldlines", "samples", lambda i: 1e6 * ix.dur(i)), "us")

    # relquant
    for n in (512, 2048, 4096):
        for fn in ("radial_levels", "build_radial_hamiltonian"):
            if fn == "build_radial_hamiltonian" and n == 512:
                continue
            ids = [i for i in ix.ids(f"relquant.{fn}")
                   if ix.spans[i].item is not None
                   and ix.spans[i].item.units.get("spectrum_n") == n]
            m[f"relquant.{fn}.ms.n{n}"] = (_div(1e3 * sum(ix.dur(i) for i in ids), len(ids)), "ms")
    for n in MEMORY_N:
        peaks = [s.peak_bytes for s in spans if s.peak_bytes is not None
                 and s.item.units.get("spectrum_n") == n]
        m[f"relquant.hamiltonian_bytes.n{n}"] = (max(peaks, default=0), "bytes")

    # radar
    sync = ix.ids("radar.einstein_sync")
    for status, pick in (("resolved", lambda e: e is None),
                         ("refused", lambda e: e == "NoSolutionError")):
        ids = [i for i in sync if pick(ix.spans[i].error)]
        m[f"radar.einstein_sync.us_per_event.{status}"] = (
            _div(1e6 * sum(ix.dur(i) for i in ids), len(ids)), "us")
    positions = count_under("radar.worldline.position", "radar.einstein_sync")
    m["radar.position_evals_per_event"] = (_div(sum(positions.values()), len(positions)), "count")
    m["radar.brentq_calls_per_event"] = (
        _div(len(ix.under("radar.brentq", "radar.einstein_sync")), len(sync)), "count")
    m["radar.wrong_refusals"] = (
        sum(1 for r in results if r.reason and r.reason.startswith("wrong_refusal")), "count")
    m["radar.radar_coordinates.us_per_call"] = (mean("radar.radar_coordinates", 1e6), "us")
    handed = set(count_under("foliation.embedding.z", "radar.radar_coordinates"))
    jac = count_under("foliation.embedding.jacobian", "radar.radar_coordinates")
    handed |= set(jac)
    m["radar.radar_coordinates.jacobian_evals_per_call"] = (
        _div(sum(jac.values()), len(handed)), "count")

    # foliation
    m["foliation.induced_geometry.us_per_call"] = (mean("foliation.induced_geometry", 1e6), "us")
    geos = count_under("foliation.induced_geometry", "foliation.extrinsic_curvature")
    m["foliation.extrinsic_curvature.geometry_evals_per_call"] = (
        _div(sum(geos.values()), len(ix.ids("foliation.extrinsic_curvature"))), "count")
    adm = "foliation.check_admissibility"
    m["foliation.check_admissibility.us_per_node"] = (
        per_unit(adm, "nodes", lambda i: 1e6 * ix.dur(i)), "us")
    adm_jac = count_under("foliation.embedding.jacobian", adm)
    handed_nodes = sum(ix.spans[i].item.units["nodes"] for i in adm_jac)
    m["foliation.check_admissibility.jacobian_evals_per_node"] = (
        _div(sum(adm_jac.values()), handed_nodes), "count")

    # collective / minkowski
    tube = "collective.moller_tube_sample"
    m["collective.moller_tube_sample.us_per_frame"] = (
        per_unit(tube, "frames", lambda i: 1e6 * ix.dur(i)), "us")
    boosts = count_under("minkowski.boost_from_h", tube)
    m["minkowski.boost_from_h.calls_per_frame"] = (
        per_unit(tube, "frames", lambda i: boosts.get(i, 0)), "count")
    m["collective.poincare_generators.us_per_call"] = (
        mean("collective.poincare_generators", 1e6), "us")
    m["collective.invariant_mass_spin.us_per_call"] = (
        mean("collective.invariant_mass_spin", 1e6), "us")

    # every layer
    for layer in LAYERS:
        ids = [i for i, s in enumerate(spans) if s.name.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = (len(ids), "count")
        m[f"{layer}.self_s"] = (sum(ix.self_time[i] for i in ids), "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
