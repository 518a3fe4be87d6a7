"""kinematics: foliation, radar, collective and minkowski calls on single
points and on whole grids.

Point items (most of them) are one einstein_sync event, one radar_coordinates
inversion, one induced_geometry or extrinsic_curvature evaluation, or one
snapshot's generators, invariants and centers.  Grid items are
check_admissibility sweeps and moller_tube_sample over hundreds of frames.
Point versus grid is the trade-off an array-first Embedding makes.

Events 0.1 from a static inertial observer are kept in the data: einstein_sync
refuses them today ("missing both", a known defect), and they fail their
check until it is fixed.
"""

import numpy as np

from instantform import collective, foliation, radar
from instantform.errors import NoSolutionError

import checks
from harness import Item, shuffle_pairs

# known-defect class -> start of the reason it fails with today: einstein_sync
# refuses events 0.1 from a static inertial observer (missing both)
KNOWN_DEFECTS = {"point.sync-near-inertial": "wrong_refusal: missing both"}
COMPOSITION = (
    ("point.sync-inertial", 40),
    ("point.sync-rindler", 24),
    ("point.sync-horizon", 24),
    ("point.sync-near-inertial", 8),
    ("point.radar-coords", 24),
    ("point.induced-geometry", 16),
    ("point.extrinsic-curvature", 8),
    ("point.snapshot", 24),
    ("grid.admissibility-rigid", 8),
    ("grid.admissibility-differential", 8),
    ("grid.admissibility-tilted", 8),
    ("grid.tube", 16),
)
RIGID_GRID = (-1.0, 1.0, 2, 2.0, 6)          # tau_min, tau_max, n_tau, extent, n_sigma
DIFFERENTIAL_GRID = (-1.0, 1.0, 2, 3.0, 6)
TUBE_FRAMES = 500


def refusable(call):
    """Run an einstein_sync call; a refusal is an answer, not an error."""
    try:
        return call()
    except NoSolutionError as exc:
        return ("refused", exc.missing)


def sync_item(klass, w, event, expect):
    """``expect`` is the closed-form radar time, or None for a refusal."""

    def call(ctx):
        return refusable(lambda: radar.einstein_sync(ctx.worldline(w), event))

    def check(res, results):
        refused = isinstance(res, tuple)
        if expect is None:
            return None if refused else f"missing refusal: resolved tau={res.tau!r}"
        if refused:
            return f"wrong_refusal: missing {res[1]}"
        tol = checks.TOL_INERTIAL_SYNC if w.name == "inertial" else checks.TOL_RINDLER_SYNC
        err = abs(res.tau - expect())
        return None if err <= tol else f"tolerance: tau off closed form by {err:.2e}"

    return Item(klass, call, check, units={"events": 1})


def inertial_event(rng, near=False):
    h = np.zeros(3) if near else 0.8 * rng.normal(size=3)
    origin = rng.normal(size=4)
    if near:
        origin[0] = 0.0
    w = radar.inertial_worldline(origin, h)
    if near:
        # 0.1 from the observer, within 0.09 of its proper time 0
        d = rng.normal(size=3)
        event = origin + np.concatenate(([rng.uniform(-0.09, 0.09)], 0.1 * d / np.linalg.norm(d)))
    else:
        u = np.concatenate(([np.sqrt(1 + h @ h)], h))
        lo, hi = w.domain
        while True:
            # at least 1 from the observer in its rest frame, and both radar
            # legs (proper times tau -/+ distance) inside its domain with room
            # to spare: beyond it einstein_sync refuses by contract
            d = 5.0 * rng.normal(size=4)
            tau = u[0] * d[0] - u[1:] @ d[1:]
            dist2 = tau**2 - (d[0] ** 2 - d[1:] @ d[1:])
            if dist2 >= 1.0 and lo + 10.0 <= tau - np.sqrt(dist2) <= tau + np.sqrt(dist2) <= hi - 10.0:
                break
        event = origin + d
    return w, event, lambda: checks.oracles().inertial_sync_closed_form(origin, h, event)


def rindler_event(rng):
    a = rng.uniform(0.5, 1.5)
    event = checks.rindler_wedge_event(rng, a)
    return radar.rindler_worldline(a), event, lambda: checks.rindler_radar_time(a, event)


def horizon_event(rng):
    a = rng.uniform(0.5, 1.5)
    t = rng.uniform(-4.0, 4.0)
    event = np.array([t, abs(t) - rng.uniform(0.05, 3.0), *rng.normal(size=2)])
    return radar.rindler_worldline(a), event


def rotating(rng, kind):
    if kind == "rigid":
        return foliation.make_rotating_embedding("rigid", rng.uniform(0.2, 0.4))
    return foliation.make_rotating_embedding("differential", rng.uniform(0.6, 1.4),
                                             r0=rng.uniform(0.8, 1.5))


def radar_coords_item(rng):
    emb = rotating(rng, "differential" if rng.uniform() < 0.5 else "rigid")
    tau = float(rng.uniform(-1, 1))
    sigma = rng.uniform(-1.2, 1.2, size=3)
    event = emb(tau, sigma)

    def call(ctx):
        return radar.radar_coordinates(ctx.embedding(emb), event)

    def check(res, results):
        err = max(abs(res[0] - tau), float(np.max(np.abs(res[1] - sigma))))
        return None if err <= checks.TOL_INVERSION else f"tolerance: inversion off by {err:.2e}"

    return Item("point.radar-coords", call, check)


def induced_item(rng):
    if rng.uniform() < 0.5:
        v = rng.normal(size=3)
        emb = foliation.tilted_embedding(0.6 * rng.uniform() * v / np.linalg.norm(v))
    else:
        emb = rotating(rng, "differential")
    tau = float(rng.uniform(-2, 2))
    sigma = rng.uniform(-2, 2, size=3)
    sgn = 1 if rng.uniform() < 0.5 else -1

    def call(ctx):
        return foliation.induced_geometry(ctx.embedding(emb), tau, sigma, sgn=sgn)

    def check(geo, results):
        lhs = sgn * geo.g4[0, 0]
        rhs = geo.lapse**2 - geo.shift_cov @ geo.shift_con
        err = max(abs(lhs - rhs), float(np.max(np.abs(-sgn * geo.g4[0, 1:] - geo.shift_cov))))
        if not err <= checks.TOL_GEOMETRY:
            return f"tolerance: lapse/shift identity off by {err:.2e}"
        return None if geo.lapse > 0 else f"contract: lapse {geo.lapse} not positive"

    return Item("point.induced-geometry", call, check)


def curvature_item(rng):
    emb = rotating(rng, "rigid" if rng.uniform() < 0.5 else "differential")
    tau = float(rng.uniform(-1, 1))
    sigma = rng.uniform(-1.5, 1.5, size=3)

    def call(ctx):
        return foliation.extrinsic_curvature(ctx.embedding(emb), tau, sigma)

    def check(k, results):
        want = checks.oracles().stencil_extrinsic_curvature(emb, tau, sigma)
        err = float(np.max(np.abs(k - want)))
        return None if err <= checks.TOL_CURVATURE else f"tolerance: K off oracle by {err:.2e}"

    return Item("point.extrinsic-curvature", call, check)


def free_system(rng, n):
    return dict(masses=rng.uniform(0.5, 2.0, size=n), positions=2.0 * rng.normal(size=(n, 3)),
                momenta=0.6 * rng.normal(size=(n, 3)), x0=float(rng.uniform(-1, 1)))


def snapshot_item(rng):
    data = free_system(rng, int(rng.integers(2, 4)))
    sys_ = collective.ParticleSystem(**data)

    def call(ctx):
        g = collective.poincare_generators(sys_)
        mc, h, s_bar = collective.invariant_mass_spin(g)
        x_e = collective.center_of_energy(g, 0.0)
        fp0 = collective.fokker_pryce_worldline(g)(0.0)
        x_nw = collective.newton_wigner_and_jacobi(g)[0]
        return {"Mc": mc, "h": h, "S_bar": s_bar, "X_E": x_e, "FP0": fp0, "x_NW": x_nw}

    def check(res, results):
        mc, spin, x_e = checks.free_invariants(**data)
        errs = (abs(res["Mc"] - mc) / mc,
                abs(np.linalg.norm(res["S_bar"]) - spin) / max(spin, 1e-12),
                float(np.max(np.abs(res["X_E"] - x_e))) / max(1.0, float(np.max(np.abs(x_e)))))
        if not max(errs) <= checks.TOL_INVARIANTS:
            return f"tolerance: invariants/centers off by {max(errs):.2e}"
        return None

    return Item("point.snapshot", call, check)


def admissibility_item(rng, kind):
    if kind == "rigid":
        omega = float(rng.uniform(0.45, 0.95))
        emb, grid = foliation.make_rotating_embedding("rigid", omega), RIGID_GRID
    elif kind == "differential":
        r0 = float(rng.uniform(0.6, 1.0))
        emb = foliation.make_rotating_embedding("differential", rng.uniform(0.8, 1.6), r0=r0)
        grid = DIFFERENTIAL_GRID
    else:
        v = rng.normal(size=3)
        emb, grid = foliation.tilted_embedding(0.7 * rng.uniform() * v / np.linalg.norm(v)), RIGID_GRID
    spec = foliation.GridSpec(*grid)

    def call(ctx):
        return foliation.check_admissibility(ctx.embedding(emb), spec)

    def check(rep, results):
        if kind == "rigid":
            got = [(v.tau, *map(float, v.sigma)) for v in rep.violations if v.condition == 2]
            return checks.compare_flagged(got, omega, grid)
        # omega*r0/2 < c and boosted planes: admissible everywhere
        return None if rep.passed else f"tolerance: admissible {kind} foliation rejected"

    return Item(f"grid.admissibility-{kind}", call, check,
                units={"nodes": grid[2] * grid[4] ** 3})


def tube_item(rng):
    while True:  # a visibly spinning pair, as the acceptance suite draws
        data = free_system(rng, 2)
        mc, spin, _ = checks.free_invariants(**data)
        if spin > 0.05 * mc:
            break
    sys_ = collective.ParticleSystem(**data)
    seed = int(rng.integers(0, 2**31))

    def call(ctx):
        return collective.moller_tube_sample(sys_, n_frames=TUBE_FRAMES, rapidity_max=3.0, seed=seed)

    def check(sample, results):
        if abs(sample.bound - spin / mc) > checks.TOL_INVARIANTS * sample.bound:
            return "tolerance: tube bound differs from |S|/Mc"
        if np.any(sample.distances > sample.bound * (1 + checks.TOL_TUBE)):
            return "tolerance: tube distance beyond |S|/Mc"
        return None

    return Item("grid.tube", call, check, units={"frames": TUBE_FRAMES})


def make(rng, klass):
    if klass == "point.sync-inertial":
        w, event, expect = inertial_event(rng)
        return sync_item(klass, w, event, expect)
    if klass == "point.sync-near-inertial":
        w, event, expect = inertial_event(rng, near=True)
        return sync_item(klass, w, event, expect)
    if klass == "point.sync-rindler":
        w, event, expect = rindler_event(rng)
        return sync_item(klass, w, event, expect)
    if klass == "point.sync-horizon":
        w, event = horizon_event(rng)
        return sync_item(klass, w, event, None)
    if klass == "point.radar-coords":
        return radar_coords_item(rng)
    if klass == "point.induced-geometry":
        return induced_item(rng)
    if klass == "point.extrinsic-curvature":
        return curvature_item(rng)
    if klass == "point.snapshot":
        return snapshot_item(rng)
    if klass == "grid.tube":
        return tube_item(rng)
    return admissibility_item(rng, klass.rsplit("-", 1)[1])


def build(seed):
    rng = np.random.default_rng([seed, 4])
    groups = [[make(rng, klass)] for klass, count in COMPOSITION for _ in range(count)]
    for (item,) in groups:
        if item.klass.startswith("point."):
            item.repeats = 3  # cheap: more attempts per pass cost little
    return shuffle_pairs(rng, groups)


def answer(out):
    if isinstance(out, tuple) and out and out[0] == "refused":
        return "refused"
    if isinstance(out, dict):
        return out
    if hasattr(out, "tau") and hasattr(out, "s_emit"):
        return {"tau": out.tau, "s": [out.s_emit, out.s_absorb]}
    if isinstance(out, tuple):           # radar_coordinates
        return {"tau": out[0], "sigma": out[1]}
    if hasattr(out, "g4"):
        return {"g4": out.g4, "lapse": out.lapse, "shift": out.shift_cov}
    if hasattr(out, "violations"):
        return {"passed": bool(out.passed), "n_nodes": out.n_nodes,
                "violations": [v.condition for v in out.violations],
                "witness": np.nan_to_num([v.witness for v in out.violations])}
    if hasattr(out, "distances"):
        return {"distances": out.distances, "bound": out.bound}
    return np.asarray(out)               # extrinsic curvature
