"""Unit-cost probe: a fixed item set, the same in every traced run.

It touches every layer, so every per-layer metric is defined whichever
workload is traced, and it carries the sizes of the ROADMAP baseline table:
admissibility nodes, radar events, tube frames, explicit and implicit evolve
steps, reconstruct samples, and spectra at n = 512, 2048 and 4096.  n = 4096
and the implicit (coulomb+darwin) evolve run only here.
"""

from types import SimpleNamespace

import numpy as np

from instantform import restframe

import checks
import wl_cli
import wl_kinematics
import wl_spectrum
from harness import Item, build_items

PROBE_SEED = 20101223
STEPS_PER_PERIOD = 400


def orbit_item(rng, klass, potential, steps):
    """evolve a seeded bound pair, then reconstruct_worldlines."""
    m1, m2, q1q2, rho0, pi0, period = checks.bound_state(rng)
    rel = restframe.RelativeState(m1=m1, m2=m2, rho=rho0, pi=pi0, charge_product=q1q2)
    dtau = period / STEPS_PER_PERIOD
    z = rng.normal(size=3)
    h = 0.5 * rng.normal(size=3)

    def call(ctx):
        traj = restframe.evolve(rel, potential, dtau, steps)
        rec = restframe.reconstruct_worldlines(traj, z, h)
        return SimpleNamespace(traj=traj, rec=rec)

    def check(out, results):
        drift = checks.relative_drift(out.traj.H)
        if not drift <= checks.TOL_ENERGY_DRIFT:
            return f"tolerance: energy drift {drift:.2e}"
        l_drift = checks.relative_drift(np.linalg.norm(out.traj.L, axis=1))
        if not l_drift <= checks.TOL_L_DRIFT:
            return f"tolerance: |L| drift {l_drift:.2e}"
        if not out.rec.all_timelike:
            return "contract: reconstruct_worldlines reports a spacelike segment"
        for i in range(2):
            if not checks.causal_segments(out.rec.events[i]):
                return f"contract: world-line {i + 1} has a spacelike segment"
        return None

    scheme = "implicit" if potential == "coulomb+darwin" else "explicit"
    return Item(klass, call, check,
                units={"steps": steps, "scheme": scheme, "samples": steps + 1})


def _first(items, per_class):
    taken, out = {}, []
    for item in items:
        if taken.get(item.klass, 0) < per_class.get(item.klass, 0):
            taken[item.klass] = taken.get(item.klass, 0) + 1
            out.append(item)
    return out


def build():
    kin = build_items(wl_kinematics, PROBE_SEED)
    kin_take = {klass: 8 for klass, _ in wl_kinematics.COMPOSITION if klass.startswith("point.")}
    kin_take.update({"point.sync-near-inertial": 4, "point.extrinsic-curvature": 4,
                     "grid.admissibility-rigid": 1, "grid.admissibility-differential": 1,
                     "grid.admissibility-tilted": 1, "grid.tube": 2})
    cli_items = build_items(wl_cli, PROBE_SEED)
    cli_take = {f"light.{sub}": 1 for sub in wl_cli.SUBCOMMANDS}
    cli_take.update({klass: 1 for klass in set(i.klass for i in cli_items)
                     if klass.startswith("reject.")})

    rng = np.random.default_rng([PROBE_SEED, 5])
    orbits = [orbit_item(rng, "probe.coulomb", "coulomb", steps=1000),
              orbit_item(rng, "probe.darwin", "coulomb+darwin", steps=500)]
    spectra = wl_spectrum.spectrum_pair(rng, "probe.n512", 512, 15.0)
    spectra += wl_spectrum.spectrum_pair(rng, "probe.n2048", 2048, 30.0)[:1]
    spectra += wl_spectrum.spectrum_pair(rng, "probe.n4096", 4096, 30.0)[1:]

    items = _first(kin, kin_take) + _first(cli_items, cli_take) + orbits + spectra
    for new, item in enumerate(items):
        item.id = new
    # re-point the n = 512 pair at its new ids; the single spectra have none
    spectra[0].partner, spectra[1].partner = spectra[1].id, spectra[0].id
    return items


KNOWN_DEFECTS = {**wl_kinematics.KNOWN_DEFECTS, **wl_cli.KNOWN_DEFECTS}
