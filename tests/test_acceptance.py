"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints its measured margins, which show up under
``-s`` or in the captured output of a failure.  Tolerances here are frozen;
loosening them is a bug fix in the wrong place.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from instantform.collective import (
    PoincareGenerators,
    center_of_energy,
    fokker_pryce_worldline,
    invariant_mass_spin,
    moller_tube_sample,
    newton_wigner_and_jacobi,
    poincare_generators,
    poincare_transform_free,
)
from instantform.errors import NoSolutionError
from instantform.foliation import (
    GridSpec,
    check_admissibility,
    extrinsic_curvature,
    identity_embedding,
    induced_geometry,
    make_rotating_embedding,
    tilted_embedding,
)
from instantform.minkowski import boost_from_h, minkowski_dot, wigner_rotation
from instantform.radar import einstein_sync, inertial_worldline, radar_coordinates, rindler_worldline
from instantform.restframe import (
    RelativeState,
    evolve,
    reconstruct_worldlines,
    relative_state,
    rest_frame_from_relative,
    to_rest_frame,
    wigner_hyperplane_embedding,
)
from helpers import (
    jacobian_bracket,
    nw_and_momentum,
    phase_space_jacobian,
    random_free_system,
    random_spinning_pair,
)
from oracles import (
    circular_orbit_momentum,
    inertial_sync_closed_form,
    newtonian_relative_orbit,
    stencil_extrinsic_curvature,
)


def test_criterion_01_metric_identities():
    """lapse/shift identities, 3 families, >= 1000 points, 1e-8, < 10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    families = [
        identity_embedding(),
        tilted_embedding(np.array([0.25, -0.4, 0.1])),
        make_rotating_embedding("differential", omega=1.1, r0=1.0),
    ]
    worst = 0.0
    n_points = 0
    for emb in families:
        for _ in range(340):
            tau = float(rng.uniform(-2, 2))
            sigma = rng.uniform(-2, 2, size=3)
            sgn = 1 if rng.uniform() < 0.5 else -1
            geo = induced_geometry(emb, tau, sigma, sgn=sgn)
            lhs1 = sgn * geo.g4[0, 0]
            rhs1 = geo.lapse**2 - geo.shift_cov @ geo.shift_con
            lhs2 = -sgn * geo.g4[0, 1:]
            worst = max(worst, abs(lhs1 - rhs1), np.max(np.abs(lhs2 - geo.shift_cov)))
            n_points += 1
    elapsed = time.monotonic() - t0
    assert n_points >= 1000
    assert worst < 1e-8
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: {n_points} points, worst deviation "
          f"{worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_moller_condition_detection():
    """Rigid rotation flagged exactly where omega*rho >= c; < 10 s."""
    t0 = time.monotonic()
    omega = 0.8
    emb = make_rotating_embedding("rigid", omega=omega)
    grid = GridSpec(-1.0, 1.0, 5, 2.0, 9)
    rep = check_admissibility(emb, grid)
    flagged = {(v.tau, tuple(v.sigma)) for v in rep.violations if v.condition == 2}

    false_pos = false_neg = 0
    n_checked = n_excluded = 0
    for tau in grid.tau_values():
        for sa in grid.sigma_axis():
            for sb in grid.sigma_axis():
                for sc in grid.sigma_axis():
                    margin = 1.0 - (omega * np.hypot(sa, sb)) ** 2
                    if abs(margin) <= 1e-9:  # boundary shell excluded
                        n_excluded += 1
                        continue
                    n_checked += 1
                    got = (tau, (sa, sb, sc)) in flagged
                    if got and margin > 0:
                        false_pos += 1
                    if not got and margin <= 0:
                        false_neg += 1
    assert false_pos == 0 and false_neg == 0
    assert not rep.passed

    diff = make_rotating_embedding("differential", omega=1.4, r0=1.0)
    rep_diff = check_admissibility(diff, GridSpec(-1.0, 1.0, 5, 3.0, 9))
    assert rep_diff.passed  # omega*R0/2 = 0.7 < c
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nCRITERION 2 PASS: {n_checked} nodes classified exactly "
          f"({n_excluded} on boundary shell), differential admissible, "
          f"{elapsed:.1f} s")


def test_criterion_03_extrinsic_curvature():
    """Lapse/shift K vs stencil oracle 1e-5 on rotation; identity exactly 0."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for kind, kw in (("rigid", {"omega": 0.3}),
                     ("differential", {"omega": 1.0, "r0": 1.1})):
        emb = make_rotating_embedding(kind, **kw)
        for _ in range(10):
            tau = float(rng.uniform(-1, 1))
            sigma = rng.uniform(-1.5, 1.5, size=3)
            got = extrinsic_curvature(emb, tau, sigma)
            want = stencil_extrinsic_curvature(emb, tau, sigma)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-5

    k_id = extrinsic_curvature(identity_embedding(), 0.3, np.array([1.0, -2.0, 0.5]))
    assert np.all(k_id == 0.0)
    print(f"\nCRITERION 3 PASS: worst |K - oracle| {worst:.2e}, identity K == 0")


def test_criterion_04_einstein_synchronization():
    """Inertial closed form 1e-10 over 1000 events; Rindler horizon 1000/1000."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        origin = rng.standard_normal(4)
        h = 0.8 * rng.standard_normal(3)
        w = inertial_worldline(origin, h, domain=(-400.0, 400.0))
        for _ in range(50):
            event = origin + 5.0 * rng.standard_normal(4)
            res = einstein_sync(w, event)
            worst = max(worst, abs(res.tau - inertial_sync_closed_form(origin, h, event)))
    assert worst < 1e-10

    w = rindler_worldline(0.9)
    n_refused = 0
    for _ in range(1000):
        t = rng.uniform(-4.0, 4.0)
        x = abs(t) - rng.uniform(0.05, 3.0)  # analytically beyond the horizon
        event = np.array([t, x, rng.standard_normal(), rng.standard_normal()])
        try:
            einstein_sync(w, event)
        except NoSolutionError:
            n_refused += 1
    assert n_refused == 1000
    print(f"\nCRITERION 4 PASS: inertial worst {worst:.2e}, "
          f"horizon refused {n_refused}/1000")


def test_criterion_05_collective_variables():
    """500 systems x 100 frames: invariants, centers, FP line, tube. < 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1005)
    worst_inv = worst_centers = worst_fp = 0.0
    bound_violations = 0
    min_peak_ratio = 1.0

    for sys_idx in range(500):
        sys = random_spinning_pair(rng, min_spin=0.02)
        g = poincare_generators(sys)
        mc, h, s_bar = invariant_mass_spin(g)
        s_norm = np.linalg.norm(s_bar)

        # tube over 100 random frames; reuse the same frames for invariance
        sample = moller_tube_sample(sys, n_frames=100, rapidity_max=3.0,
                                    seed=sys_idx)
        if np.any(sample.distances > sample.bound * (1 + 1e-12)):
            bound_violations += 1
        min_peak_ratio = min(min_peak_ratio, sample.max_distance / sample.bound)

        spot = slice(0, 100, 10)  # invariance spot-checked on every 10th
        for lam in boost_from_h(np.sinh(sample.rapidities[spot])[:, None]
                                * sample.directions[spot]):
            g_f = PoincareGenerators(P=lam @ g.P, J=lam @ g.J @ lam.T,
                                     evaluation_time=0.0, c=1.0)
            mc_f, _, s_f = invariant_mass_spin(g_f)
            worst_inv = max(worst_inv, abs(mc_f - mc) / mc,
                            abs(np.linalg.norm(s_f) - s_norm) / max(s_norm, 1e-12))

        rest = poincare_transform_free(sys, boost_from_h(-h))
        g_r = poincare_generators(rest)
        xe = center_of_energy(g_r)
        x_nw = newton_wigner_and_jacobi(g_r)[0]
        fp_r = fokker_pryce_worldline(g_r)
        worst_centers = max(worst_centers,
                            float(np.max(np.abs(xe - x_nw))),
                            float(np.max(np.abs(xe - fp_r(0.0)[1:]))))

        # frame independence of the covariant line, one random frame
        lam = boost_from_h(0.8 * rng.standard_normal(3))
        moved = poincare_transform_free(sys, lam)
        fp1 = fokker_pryce_worldline(g)
        g2 = poincare_generators(moved)
        fp2 = fokker_pryce_worldline(g2)
        u2 = boost_from_h(invariant_mass_spin(g2)[1])[:, 0]
        for tau in (-1.0, 1.3):
            ev = lam @ fp1(tau)
            t2 = minkowski_dot(u2, ev) - minkowski_dot(u2, fp2(0.0))
            worst_fp = max(worst_fp, float(np.max(np.abs(fp2(float(t2)) - ev))))

    elapsed = time.monotonic() - t0
    assert worst_inv < 1e-9
    assert worst_centers < 1e-9
    assert worst_fp < 1e-9
    assert bound_violations == 0
    assert min_peak_ratio > 0.5  # every system's tube visibly filled
    assert elapsed < 60.0
    print(f"\nCRITERION 5 PASS: 500 systems, invariance {worst_inv:.2e}, "
          f"centers {worst_centers:.2e}, FP line {worst_fp:.2e}, "
          f"0 bound violations, min peak ratio {min_peak_ratio:.2f}, "
          f"{elapsed:.1f} s")


def test_criterion_06_newton_wigner_canonicity():
    """{X,X} = 0 and {X,P} = identity by central differences, 100 systems."""
    rng = np.random.default_rng(1006)
    worst_xx = worst_xp = 0.0
    for _ in range(100):
        sys = random_free_system(rng)
        jac = phase_space_jacobian(nw_and_momentum, sys)   # X_NW^1..3, P^1..3
        for i in range(3):
            for j in range(i + 1, 3):
                worst_xx = max(worst_xx, abs(jacobian_bracket(jac, i, j)))
        for i in range(3):
            for j in range(3):
                want = 1.0 if i == j else 0.0
                worst_xp = max(worst_xp, abs(jacobian_bracket(jac, i, 3 + j) - want))
    assert worst_xx < 1e-8
    assert worst_xp < 1e-8
    print(f"\nCRITERION 6 PASS: max |{{X,X}}| {worst_xx:.2e}, "
          f"max |{{X,P}} - delta| {worst_xp:.2e}")


def test_criterion_07_rest_frame_dynamics():
    """Conservation at 1e4 steps, circular orbit, Newtonian slope. < 60 s."""
    t0 = time.monotonic()
    m1, m2, q1q2, r0 = 1.0, 1.5, -2.0, 1.0
    k0 = circular_orbit_momentum(m1, m2, q1q2, r0)

    rel = RelativeState(m1=m1, m2=m2, rho=np.array([r0, 0, 0]),
                        pi=np.array([0, k0, 0]), charge_product=q1q2)
    e1, e2 = np.hypot(m1, k0), np.hypot(m2, k0)
    period = 2 * np.pi * r0 / (k0 * (1 / e1 + 1 / e2))

    traj = evolve(rel, "coulomb", period / 1000, 10_000)
    h_drift = traj.energy_drift
    lmags = np.linalg.norm(traj.L, axis=1)
    l_drift = float(np.max(np.abs(lmags - lmags[0])) / lmags[0])
    assert h_drift <= 1e-8
    assert l_drift <= 1e-8

    n_fine = 65_000  # 6500 steps per orbit
    traj_c = evolve(rel, "coulomb", 10 * period / n_fine, n_fine)
    radius_drift = float(np.max(np.abs(np.linalg.norm(traj_c.rho, axis=1) - r0)))
    assert radius_drift < 1e-6

    errs = []
    cs = [8.0, 16.0, 32.0, 64.0]
    for c in cs:
        rel_n = RelativeState(m1=1.0, m2=1.5, rho=np.array([1.0, 0, 0]),
                              pi=np.array([0.0, 0.35, 0.1]),
                              charge_product=-2.0, c=c)
        n, t_total = 2000, 8.0
        tr = evolve(rel_n, "coulomb", c * t_total / n, n)
        oracle = newtonian_relative_orbit(1.0, 1.5, -2.0, rel_n.rho, rel_n.pi,
                                          t_total / n, n)
        errs.append(np.max(np.linalg.norm(tr.rho - oracle, axis=1)))
    slope = float(np.polyfit(np.log(cs), np.log(errs), 1)[0])
    assert abs(slope + 2.0) < 0.2

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nCRITERION 7 PASS: H drift {h_drift:.2e}, |L| drift {l_drift:.2e}, "
          f"radius drift {radius_drift:.2e}, slope {slope:.3f}, {elapsed:.1f} s")


def test_criterion_08_reconstruction_round_trip():
    """Radar chart returns (tau, eta_i) at 1e-8 on every sample; covariance."""
    rng = np.random.default_rng(1008)
    sys = random_free_system(rng)
    g = poincare_generators(sys)
    st = to_rest_frame(sys)
    rel = relative_state(st)
    traj = evolve(rel, "none", 0.05, 100)
    rec = reconstruct_worldlines(traj, st.z, st.h)
    emb = wigner_hyperplane_embedding(st.z, st.h, st.Mc,
                                      np.cross(rel.rho, rel.pi))
    worst = 0.0
    for k in range(len(traj.tau)):
        rel_k = RelativeState(rel.m1, rel.m2, traj.rho[k], traj.pi[k])
        st_k = rest_frame_from_relative(rel_k, "none")
        for i in range(2):
            tau_r, sigma_r = radar_coordinates(emb, rec.events[i, k])
            worst = max(worst, abs(tau_r - traj.tau[k]),
                        float(np.max(np.abs(sigma_r - st_k.etas[i]))))
    assert worst < 1e-8

    lam = boost_from_h(np.array([0.3, 0.5, -0.2]))
    g2 = PoincareGenerators(P=lam @ g.P, J=lam @ g.J @ lam.T,
                            evaluation_time=0.0, c=1.0)
    _, h2, _ = invariant_mass_spin(g2)
    z2 = newton_wigner_and_jacobi(g2)[1]
    rot = wigner_rotation(g.P, lam)
    traj2 = evolve(RelativeState(rel.m1, rel.m2, rot @ rel.rho, rot @ rel.pi,
                                 tau=rel.tau),
                   "none", 0.05, 100)
    rec2 = reconstruct_worldlines(traj2, z2, h2)
    worst_cov = max(
        float(np.max(np.abs(rec.events[i] @ lam.T - rec2.events[i])))
        for i in range(2)
    )
    assert worst_cov < 1e-8
    print(f"\nCRITERION 8 PASS: round trip worst {worst:.2e} over "
          f"{2 * len(traj.tau)} samples, covariance {worst_cov:.2e}")


def test_criterion_09_quantum_spectrum():
    """Bohr at 1%, relativistic below, doubling < 0.1%; < 120 s at n=2048."""
    from instantform.relquant import radial_levels

    t0 = time.monotonic()
    m1 = m2 = 1.0
    mu, alpha, length, n = 0.5, 0.01, 8000.0, 2048
    bohr = -mu * alpha**2 / 2.0

    nonrel = radial_levels(n, length, m1, m2, alpha,
                           kinetic="nonrelativistic", n_levels=3)
    bohr_err = abs(nonrel[0] - bohr) / abs(bohr)
    assert bohr_err < 0.01

    sal = radial_levels(n, length, m1, m2, alpha, kinetic="salpeter", n_levels=3)
    assert np.all(sal < nonrel)

    eps = length / (4 * n)
    e_n = radial_levels(n, length, m1, m2, alpha, softening=eps, n_levels=1)
    e_2n = radial_levels(2 * n, length, m1, m2, alpha, softening=eps, n_levels=1)
    change = abs(e_2n[0] - e_n[0]) / abs(e_2n[0])
    assert change < 1e-3

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\nCRITERION 9 PASS: Bohr error {bohr_err:.2e}, relativistic below "
          f"by {float(np.min(nonrel - sal)):.1e}, doubling change {change:.2e}, "
          f"{elapsed:.1f} s")


def test_criterion_10_cli_determinism(tmp_path):
    """Two identical CLI runs produce byte-identical artifacts."""
    from instantform import cli

    cfg = {
        "particles": [
            {"m": 1.0, "x": [0.3, 0.1, -0.2], "p": [0.2, 0.0, 0.1]},
            {"m": 1.5, "x": [-0.4, 0.2, 0.5], "p": [-0.1, 0.3, 0.0]},
        ],
        "n_frames": 200, "rapidity_max": 3.0, "seed": 42,
    }
    cfg_path = tmp_path / "tube.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        assert cli.main(["tube", "--config", str(cfg_path), "--out", out]) == 0

    dirs = [os.path.join(out, os.listdir(out)[0]) for out in outs]
    assert os.path.basename(dirs[0]) == os.path.basename(dirs[1])
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    n_compared = 0
    for name in names:
        if name == "manifest.json":  # wall time differs by design
            continue
        digests = []
        for d in dirs:
            with open(os.path.join(d, name), "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert digests[0] == digests[1], name
        n_compared += 1
    assert n_compared >= 2
    print(f"\nCRITERION 10 PASS: {n_compared} artifacts byte-identical "
          f"across repeated runs")
