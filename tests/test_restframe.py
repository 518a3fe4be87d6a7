import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from instantform import collective, potentials, restframe
from instantform.collective import (
    ParticleSystem,
    PoincareGenerators,
    invariant_mass_spin,
    poincare_generators,
    poincare_transform_free,
)
from instantform.errors import (
    CollisionError,
    NonConvergenceError,
    NonTimelikeError,
    SingularPotentialError,
)
from instantform.minkowski import boost_from_h, wigner_rotation
from instantform.potentials import POTENTIALS
from instantform.radar import radar_coordinates
from instantform.restframe import (
    RelativeState,
    evolve,
    internal_generators,
    invariant_mass_hamiltonian,
    reconstruct_worldlines,
    relative_state,
    rest_frame_from_relative,
    to_rest_frame,
    wigner_hyperplane_embedding,
)
import oracles
from helpers import random_coulomb_pair, random_free_system, snapshots
from oracles import (
    bound_clears,
    circular_orbit_momentum,
    mc_gradients,
    newtonian_relative_orbit,
    samplewise_reconstruct_worldlines,
    stepwise_evolve,
)


# ---------------------------------------------------------------- rest frame

def test_free_system_rest_conditions_exact():
    """P_int = K_int = 0 and E_int = Mc for any free snapshot."""
    rng = np.random.default_rng(20)
    for _ in range(25):
        sys = random_free_system(rng)
        mc, _, s_bar = invariant_mass_spin(poincare_generators(sys))
        st = to_rest_frame(sys)
        ig = internal_generators(st)
        np.testing.assert_allclose(ig.P_int, 0.0, atol=1e-10)
        np.testing.assert_allclose(ig.K_int, 0.0, atol=1e-10)
        assert ig.E_int == pytest.approx(mc, abs=1e-10)
        np.testing.assert_allclose(ig.S_bar, s_bar, atol=1e-10)


def test_interacting_at_rest_is_exact():
    rng = np.random.default_rng(21)
    mom = 0.4 * rng.standard_normal(3)
    sys = random_coulomb_pair(rng)
    sys.momenta = np.array([mom, -mom])  # total momentum zero
    st = to_rest_frame(sys)
    ig = internal_generators(st)
    np.testing.assert_allclose(ig.P_int, 0.0, atol=1e-12)
    np.testing.assert_allclose(ig.K_int, 0.0, atol=1e-12)
    assert st.projection_residual[0] < 1e-12


def test_darwin_three_body_at_rest_energy_is_mass():
    """E_int = Mc beyond two bodies: one Darwin convention for both sides."""
    rng = np.random.default_rng(23)
    mom = 0.4 * rng.standard_normal((3, 3))
    sys = ParticleSystem(
        masses=rng.uniform(0.5, 2.0, 3),
        positions=3.0 * rng.standard_normal((3, 3)),
        momenta=mom - mom.mean(axis=0),
        charges=np.array([1.0, -1.0, 1.0]),
        potential="coulomb+darwin",
    )
    st = to_rest_frame(sys)
    assert internal_generators(st).E_int == pytest.approx(st.Mc, rel=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(snapshots())
def test_rest_frame_conditions_property(sys):
    st = to_rest_frame(sys)
    ig = internal_generators(st)
    scale = st.Mc * (1.0 + np.max(np.abs(st.etas)))
    np.testing.assert_allclose(ig.P_int, 0.0, atol=1e-12 * st.Mc)
    np.testing.assert_allclose(ig.K_int, 0.0, atol=1e-12 * scale)
    assert ig.E_int == pytest.approx(st.Mc, rel=1e-12)


def test_interacting_at_rest_off_lab_time_zero():
    """A Coulomb pair at rest and lab time 1 keeps its separation: no drift."""
    sys = ParticleSystem(
        masses=np.array([1.0, 1.0]),
        positions=np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
        momenta=np.array([[0.25, 0.0, 0.0], [-0.25, 0.0, 0.0]]),
        charges=np.array([-0.5, -0.5]),
        potential="coulomb",
        x0=1.0,
    )
    st = to_rest_frame(sys)
    assert internal_generators(st).E_int == pytest.approx(st.Mc, rel=1e-12)
    np.testing.assert_allclose(st.etas[0] - st.etas[1], [-3.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert st.tau == 1.0


def test_interacting_boosted_records_projection():
    """A moving interacting snapshot needs a small kappa projection.

    The conditions still come out exact afterwards; the size of the
    correction is recorded rather than hidden.
    """
    rng = np.random.default_rng(22)
    mom = 0.4 * rng.standard_normal(3)
    base = random_coulomb_pair(rng)
    base.momenta = np.array([mom, -mom])

    free_view = poincare_transform_free(
        _strip_potential(base), boost_from_h(np.array([0.2, -0.1, 0.15]))
    )
    boosted = _reattach(free_view, base)
    st = to_rest_frame(boosted)
    ig = internal_generators(st)
    np.testing.assert_allclose(ig.P_int, 0.0, atol=1e-12)
    np.testing.assert_allclose(ig.K_int, 0.0, atol=1e-12)
    kappa_resid = st.projection_residual[0]
    assert 1e-16 < kappa_resid < 0.05 * st.Mc

    # internal coordinates agree with the directly-at-rest ones at the same
    # rest time (the base snapshot is at rest, so its rest time is lab time)
    rel_b = relative_state(st)
    base_then = _reattach(poincare_transform_free(_strip_potential(base), new_time=st.tau), base)
    rel_r = relative_state(to_rest_frame(base_then))
    np.testing.assert_allclose(rel_b.rho, rel_r.rho, atol=2e-2)
    np.testing.assert_allclose(rel_b.pi, rel_r.pi, atol=2e-2)


def _strip_potential(sys):
    from instantform.collective import ParticleSystem

    return ParticleSystem(masses=sys.masses, positions=sys.positions,
                          momenta=sys.momenta, x0=sys.x0, c=sys.c)


def _reattach(free_sys, template):
    from instantform.collective import ParticleSystem

    return ParticleSystem(masses=free_sys.masses, positions=free_sys.positions,
                          momenta=free_sys.momenta, charges=template.charges,
                          potential=template.potential, x0=free_sys.x0,
                          c=free_sys.c)


def test_relative_state_round_trip():
    rel = RelativeState(m1=1.0, m2=1.4, rho=np.array([1.2, 0.0, 0.3]),
                        pi=np.array([0.1, 0.4, -0.2]), charge_product=-1.0)
    st = rest_frame_from_relative(rel, "coulomb")
    ig = internal_generators(st)
    np.testing.assert_allclose(ig.K_int, 0.0, atol=1e-14)
    assert ig.E_int == pytest.approx(st.Mc, abs=1e-12)
    back = relative_state(st)
    np.testing.assert_allclose(back.rho, rel.rho, atol=1e-14)
    np.testing.assert_allclose(back.pi, rel.pi, atol=1e-14)
    assert back.charge_product == pytest.approx(rel.charge_product)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(snapshots().filter(lambda sys: sys.n == 2))
def test_rest_frame_relative_round_trip_property(sys):
    """to_rest_frame -> relative_state -> rest_frame_from_relative gives the
    rest-frame state back: the relative variables lose nothing of a pair."""
    st = to_rest_frame(sys)
    back = rest_frame_from_relative(relative_state(st), st.potential, z=st.z, h=st.h,
                                    charges=st.charges)
    for got, want in ((back.etas, st.etas), (back.kappas, st.kappas), (back.Mc, st.Mc),
                      (back.S_bar, st.S_bar), (back.tau, st.tau)):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(want))))


def test_relative_state_requires_two_particles():
    rng = np.random.default_rng(23)
    st = to_rest_frame(random_free_system(rng, n=3))
    with pytest.raises(ValueError):
        relative_state(st)


def test_invariant_mass_hamiltonian_value():
    rel = RelativeState(m1=1.0, m2=2.0, rho=np.array([2.0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.3, 0.0]), charge_product=-1.0)
    pi2 = 0.09
    want = np.sqrt(1 + pi2) + np.sqrt(4 + pi2) - 1.0 / (4 * np.pi * 2.0)
    assert invariant_mass_hamiltonian(rel, "coulomb") == pytest.approx(want, rel=1e-14)


def test_relative_state_validation():
    with pytest.raises(ValueError):
        RelativeState(m1=-1.0, m2=1.0, rho=np.ones(3), pi=np.zeros(3))
    with pytest.raises(ValueError):
        RelativeState(m1=1.0, m2=1.0, rho=np.ones(2), pi=np.zeros(3))


@pytest.mark.parametrize("change", [
    {"rho": [math.nan, 0.0, 0.0]},
    {"pi": [0.0, math.inf, 0.0]},
    {"charge_product": math.nan},
    {"charge_product": -math.inf},
    {"tau": math.nan},
], ids=["rho-nan", "pi-inf", "charge-nan", "charge-inf", "tau-nan"])
def test_relative_state_refuses_non_finite_values(change):
    """A non-finite state is refused where it is made, before evolve can
    misname it an overflow or a collision."""
    args = {"m1": 1.0, "m2": 1.0, "rho": [1.0, 0.0, 0.0], "pi": [0.0, 0.1, 0.0],
            "charge_product": -1.0, **change}
    with pytest.raises(ValueError, match="finite"):
        RelativeState(**args)


# ------------------------------------------------------------------- evolve

def test_free_evolution_is_exact_drift():
    rel = RelativeState(m1=1.0, m2=2.0, rho=np.array([1.0, 0.2, -0.4]),
                        pi=np.array([0.3, -0.1, 0.2]))
    traj = evolve(rel, "none", 0.01, 2000)
    e1 = np.hypot(1.0, np.linalg.norm(rel.pi))
    e2 = np.hypot(2.0, np.linalg.norm(rel.pi))
    want = rel.rho + traj.tau[-1] * rel.pi * (1 / e1 + 1 / e2)
    np.testing.assert_allclose(traj.rho[-1], want, atol=1e-12)
    assert traj.energy_drift == 0.0  # H never recomputed differently
    assert np.max(np.abs(traj.L - traj.L[0])) < 1e-12
    assert traj.scheme == "leapfrog"


def test_coulomb_conservation_over_long_run():
    k0 = circular_orbit_momentum(1.0, 1.5, -2.0, 1.0)
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([0.0, k0, 0.0]), charge_product=-2.0)
    traj = evolve(rel, "coulomb", 0.01, 10_000)
    assert traj.energy_drift < 1e-8
    lmags = np.linalg.norm(traj.L, axis=1)
    assert np.max(np.abs(lmags - lmags[0])) / lmags[0] < 1e-8


def test_circular_orbit_stays_circular():
    """Two orbits at the oracle momentum: radius wobble stays tiny."""
    m1, m2, q1q2, r0 = 1.0, 1.5, -2.0, 1.0
    k0 = circular_orbit_momentum(m1, m2, q1q2, r0)
    e1 = np.hypot(m1, k0)
    e2 = np.hypot(m2, k0)
    period = 2 * np.pi * r0 / (k0 * (1 / e1 + 1 / e2))
    n = 10_000
    rel = RelativeState(m1=m1, m2=m2, rho=np.array([r0, 0, 0]),
                        pi=np.array([0, k0, 0]), charge_product=q1q2)
    traj = evolve(rel, "coulomb", 2 * period / n, n)
    radii = np.linalg.norm(traj.rho, axis=1)
    assert np.max(np.abs(radii - r0)) < 1e-6


def test_darwin_implicit_scheme_second_order():
    rel = RelativeState(m1=1.0, m2=1.0, rho=np.array([2.0, 0.0, 0.0]),
                        pi=np.array([0.05, 0.25, 0.0]), charge_product=-1.0,
                        c=3.0)
    runs = [evolve(rel, "coulomb+darwin", 0.04 / 2**k, 2000 * 2**k)
            for k in range(3)]
    assert runs[0].scheme == "generalized-leapfrog(implicit)"
    assert runs[0].energy_drift < 1e-8
    assert runs[0].meta["max_fixed_point_sweeps"] <= 10
    err_coarse = np.max(np.abs(runs[0].rho[-1] - runs[1].rho[-1]))
    err_fine = np.max(np.abs(runs[1].rho[-1] - runs[2].rho[-1]))
    order = np.log2(err_coarse / err_fine)
    assert 1.7 < order < 2.3


def test_newtonian_limit_error_scaling():
    """Relativistic-vs-Newtonian gap shrinks like 1/c^2 (factor-16 check)."""
    errs = []
    for c in (8.0, 32.0):
        rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([1.0, 0, 0]),
                            pi=np.array([0.0, 0.35, 0.1]),
                            charge_product=-2.0, c=c)
        n, t_total = 2000, 8.0
        traj = evolve(rel, "coulomb", c * t_total / n, n)
        oracle = newtonian_relative_orbit(1.0, 1.5, -2.0, rel.rho, rel.pi,
                                          t_total / n, n)
        errs.append(np.max(np.linalg.norm(traj.rho - oracle, axis=1)))
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 32.0


def test_radial_plunge_raises_collision_error():
    rel = RelativeState(m1=1.0, m2=1.0, rho=np.array([0.5, 0, 0]),
                        pi=np.zeros(3), charge_product=-5.0)
    with pytest.raises(CollisionError) as err:
        evolve(rel, "coulomb", 0.05, 20_000)
    # the last good state is attached for diagnostics
    tau, rho, pi = err.value.last_state
    assert np.linalg.norm(rho) < 0.5
    assert tau > 0


def test_overflowing_initial_separation_is_refused_not_a_collision():
    """|rho0| = inf would make the collision floor inf, and step 1 a collision."""
    rel = RelativeState(m1=1.0, m2=1.0, rho=np.array([1e200, 0.0, 0.0]),
                        pi=np.array([0.0, 0.1, 0.0]), charge_product=-1.0)
    for potential in POTENTIALS:
        with pytest.raises(OverflowError, match="rho0"), warnings.catch_warnings():
            warnings.simplefilter("error")  # the checks run on floats: no numpy warning
            evolve(rel, potential, 0.1, 10)


@pytest.mark.parametrize("m1, c", [(1e300, 1.0), (1.0, 1e300), (1e160, 1.0)])
def test_overflowing_rest_energy_is_refused_by_name(m1, c):
    """(m c)^2 past the largest double is refused up front, by m c and Mc,
    not left to Python's bare ``(34, 'Numerical result out of range')``."""
    rel = RelativeState(m1=m1, m2=1.0, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.1, 0.0]), charge_product=-1.0, c=c)
    for potential in POTENTIALS:
        with pytest.raises(OverflowError, match=r"m c = .*, Mc = inf"):
            evolve(rel, potential, 0.1, 10)


def test_evolve_argument_validation():
    rel = RelativeState(m1=1.0, m2=1.0, rho=np.ones(3), pi=np.zeros(3))
    with pytest.raises(ValueError):
        evolve(rel, "none", -0.1, 10)
    with pytest.raises(ValueError):
        evolve(rel, "none", 0.1, 0)
    with pytest.raises(ValueError):
        evolve(rel, "hooke", 0.1, 10)


@pytest.mark.parametrize("m", [1e-200, 1e-160])
def test_tiny_mass_darwin_pair_is_refused_before_the_first_step(m):
    """m1 m2 c^2 underflows the Darwin coefficient's denominator, so Mc at
    the start is not finite: refused by name, and numpy warns of nothing."""
    rel = RelativeState(m1=m, m2=m, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.309, 0.0]), charge_product=-2.0)
    with pytest.raises(OverflowError, match=r"the initial state overflows: .*Mc = inf"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(rel, "coulomb+darwin", 0.01, 10)


@pytest.mark.parametrize("q, dtau", [(-1e300, 0.01), (-2.0, 1e300)],
                         ids=["charge-1e300", "dtau-1e300"])
def test_first_sample_whose_mass_overflows_is_refused_by_step(q, dtau):
    """Every sample stays finite (|rho| stays 1 while |pi| reaches about
    1e299); only Mc overflows, and the first such sample is named."""
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.309, 0.0]), charge_product=q)
    with pytest.raises(OverflowError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(rel, "coulomb", dtau, 200)
    assert type(err.value) is OverflowError
    assert str(err.value) == (f"Mc is not finite at step 1 (tau = {dtau:.3e}, "
                              f"dtau = {dtau:.3e})")


def test_pair_bound_below_its_rest_energy_is_refused_at_the_start():
    """Near-massless particles at rest with an attraction: Mc = 2e-300 -
    2/(4 pi) < 0 is finite, and refused as reconstruct refuses it, naming
    the start as sample 0."""
    rel = RelativeState(m1=1e-300, m2=1e-300, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.zeros(3), charge_product=-2.0)
    with pytest.raises(NonTimelikeError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(rel, "coulomb", 0.01, 10)
    assert str(err.value) == ("Mc must be positive: Mc = -1.592e-01 at step 0 "
                              "(tau = 0.000e+00, dtau = 1.000e-02)")


def test_first_sample_whose_mass_is_not_positive_is_refused_by_step():
    """A light pair bound by 0.022 whose coarse steps lose more than that:
    Mc is positive at the start and negative at step 2, which is named."""
    rel = RelativeState(m1=0.01, m2=0.01, rho=np.array([1.0, 0.0, 0.0]),
                        pi=0.09 * np.array([-math.cos(1.0), math.sin(1.0), 0.0]),
                        charge_product=-2.0)
    with pytest.raises(NonTimelikeError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(rel, "coulomb", 0.5, 20)
    assert re.fullmatch(r"Mc must be positive: Mc = -\S+ at step 2 "
                        r"\(tau = 1\.000e\+00, dtau = 5\.000e-01\)", str(err.value))
    # one step runs clear of it
    assert evolve(rel, "coulomb", 0.5, 1).H.min() > 0


@pytest.mark.parametrize("r0, dtau", [(1e-70, 0.01), (1e-100, 1e-80)])
def test_darwin_underflow_in_a_step_names_the_step(r0, dtau):
    """The Darwin gradient's r^5 underflows to 0 inside step 1: the float
    fault keeps its type and names step, |rho| and the scheme."""
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([r0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.309, 0.0]), charge_product=-2.0)
    with pytest.raises(ZeroDivisionError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(rel, "coulomb+darwin", dtau, 10)
    assert str(err.value) == (f"float division by zero at step 1 of "
                              f"generalized-leapfrog(implicit) (|rho| = {r0:.3e})")


@pytest.mark.parametrize("fp_max_iter", [0, -1])
def test_evolve_refuses_fewer_than_one_fixed_point_sweep(fp_max_iter):
    """A sweep cap below 1 is a bad argument named as such, for every
    potential: the implicit Darwin step once read its update before any sweep."""
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.5, 0.0]), charge_product=-1.0, c=3.0)
    for potential in POTENTIALS:
        with pytest.raises(ValueError, match="fp_max_iter"):
            evolve(rel, potential, 0.1, 10, fp_max_iter=fp_max_iter)


@pytest.mark.parametrize("dtau", [math.inf, math.nan])
def test_evolve_refuses_a_non_finite_step(dtau):
    """An infinite step is a bad argument, not coinciding particles."""
    rel = RelativeState(m1=1.0, m2=1.0, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.5, 0.0]), charge_product=-1.0)
    for potential in POTENTIALS:
        with pytest.raises(ValueError, match="dtau"):
            evolve(rel, potential, dtau, 10)


# ----------------------------------------------------------- reconstruction

def test_reconstruction_free_case():
    rng = np.random.default_rng(30)
    sys = random_free_system(rng)
    st = to_rest_frame(sys)
    rel = relative_state(st)
    traj = evolve(rel, "none", 0.05, 100)
    rec = reconstruct_worldlines(traj, st.z, st.h)
    assert rec.events.shape == (2, 101, 4)
    assert rec.all_timelike
    # free worldlines are straight in the lab
    for i in range(2):
        d = np.diff(rec.events[i], axis=0)
        assert np.max(np.abs(d - d[0])) < 1e-10


def test_reconstruction_stays_on_lab_worldlines():
    """A free moving snapshot off lab time 0 is rebuilt on its own lab lines.

    to_rest_frame leaves the state at a rest time tau != 0; evolve and
    reconstruct_worldlines must carry that time, or every event slides along
    the center line by tau.
    """
    rng = np.random.default_rng(35)
    sys = random_free_system(rng)
    sys.x0 = 1.0
    st = to_rest_frame(sys)
    assert np.linalg.norm(st.h) > 0.1
    traj = evolve(relative_state(st), "none", 0.05, 40)
    rec = reconstruct_worldlines(traj, st.z, st.h)
    assert rec.tau[0] == st.tau
    vel = sys.momenta / sys.energies()[:, None]
    for i in range(2):
        ev = rec.events[i]
        on_line = sys.positions[i] + (ev[:, :1] - sys.x0) * vel[i]
        np.testing.assert_allclose(ev[:, 1:], on_line, rtol=0, atol=1e-10)


def test_reconstruction_radar_round_trip():
    """Radar coordinates on the hyperplane chart recover (tau, eta_i)."""
    rng = np.random.default_rng(31)
    sys = random_free_system(rng)
    st = to_rest_frame(sys)
    rel = relative_state(st)
    traj = evolve(rel, "none", 0.05, 100)
    rec = reconstruct_worldlines(traj, st.z, st.h)
    emb = wigner_hyperplane_embedding(st.z, st.h, st.Mc,
                                      np.cross(rel.rho, rel.pi))
    for k in (0, 25, 50, 99):
        rel_k = RelativeState(rel.m1, rel.m2, traj.rho[k], traj.pi[k])
        st_k = rest_frame_from_relative(rel_k, "none")
        for i in range(2):
            tau_r, sigma_r = radar_coordinates(emb, rec.events[i, k])
            assert tau_r == pytest.approx(traj.tau[k], abs=1e-8)
            np.testing.assert_allclose(sigma_r, st_k.etas[i], atol=1e-8)


def test_hyperplane_chart_is_inertial():
    from instantform.foliation import induced_geometry

    rng = np.random.default_rng(32)
    st = to_rest_frame(random_free_system(rng))
    emb = wigner_hyperplane_embedding(st.z, st.h, st.Mc, st.S_bar)
    geo = induced_geometry(emb, 0.4, np.array([0.3, -0.8, 0.1]))
    np.testing.assert_allclose(geo.g4, np.diag([1.0, -1, -1, -1]), atol=1e-12)


def test_reconstruction_boost_covariance():
    """Lambda applied to events == reconstruction from transformed data."""
    rng = np.random.default_rng(33)
    sys = random_free_system(rng)
    g = poincare_generators(sys)
    st = to_rest_frame(sys)
    rel = relative_state(st)
    traj = evolve(rel, "none", 0.05, 100)
    rec = reconstruct_worldlines(traj, st.z, st.h)

    lam = boost_from_h(np.array([0.3, 0.5, -0.2]))
    g2 = PoincareGenerators(P=lam @ g.P, J=lam @ g.J @ lam.T,
                            evaluation_time=0.0, c=1.0)
    mc2, h2, _ = invariant_mass_spin(g2)
    from instantform.collective import newton_wigner_and_jacobi

    z2 = newton_wigner_and_jacobi(g2)[1]
    rot = wigner_rotation(g.P, lam)
    traj2 = evolve(RelativeState(rel.m1, rel.m2, rot @ rel.rho, rot @ rel.pi,
                                 tau=rel.tau),
                   "none", 0.05, 100)
    rec2 = reconstruct_worldlines(traj2, z2, h2)
    for i in range(2):
        np.testing.assert_allclose(rec.events[i] @ lam.T, rec2.events[i],
                                   atol=1e-8)


def test_fp_events_lie_on_center_line():
    rng = np.random.default_rng(34)
    sys = random_free_system(rng)
    g = poincare_generators(sys)
    st = to_rest_frame(sys)
    rel = relative_state(st)
    traj = evolve(rel, "none", 0.1, 50)
    rec = reconstruct_worldlines(traj, st.z, st.h)
    from instantform.collective import fokker_pryce_worldline

    fp = fokker_pryce_worldline(g)
    np.testing.assert_allclose(rec.fp_events, fp(traj.tau), atol=1e-10)


# ---------------------------------------------------- bitwise against oracles

def _bits(*arrays):
    return [(np.shape(a), np.asarray(a).tobytes()) for a in arrays]


def _evolve_or_error(fn, rel, potential, dtau, n_steps, **kw):
    try:
        return fn(rel, potential, dtau, n_steps, **kw), None
    except (CollisionError, NonConvergenceError, SingularPotentialError) as exc:
        return None, exc


@pytest.mark.parametrize("potential", POTENTIALS)
def test_evolve_and_reconstruct_match_stepwise_oracle_bitwise(potential):
    """Trajectories, Mc, L, meta, collisions and reconstructed events equal
    the one-step-at-a-time oracle bit for bit (signed zeros included), over
    seeded random pairs at c != 1 and rest times tau != 0."""
    rng = np.random.default_rng(["coulomb", "coulomb+darwin", "none"].index(potential))
    collisions = finished = 0
    for case in range(24):
        plunge = case % 4 == 0  # nearly radial, attractive: most of these collide
        rho = rng.normal(size=3)
        pi = rng.normal(size=3) * (1e-3 if plunge else 0.4)
        rel = RelativeState(
            m1=float(rng.uniform(0.5, 2.0)), m2=float(rng.uniform(0.5, 2.0)),
            rho=rho, pi=pi,
            charge_product=float(-rng.uniform(2.0, 6.0) if plunge else rng.uniform(-3.0, 1.0)),
            c=float(rng.choice([1.0, 2.5, 7.0])), tau=float(rng.uniform(-3.0, 3.0)),
        )
        dtau = float(rng.uniform(0.01, 0.08)) * (rel.c if plunge else 1.0)
        kw = {"collision_fraction": 0.05} if plunge else {}
        got, err = _evolve_or_error(evolve, rel, potential, dtau, 150, **kw)
        want, want_err = _evolve_or_error(stepwise_evolve, rel, potential, dtau, 150, **kw)
        if want_err is not None:
            assert type(err) is type(want_err) and str(err) == str(want_err)
            if isinstance(want_err, CollisionError):
                collisions += 1
                assert _bits(*err.last_state) == _bits(*want_err.last_state)
            continue
        assert err is None
        finished += 1
        assert _bits(got.tau, got.rho, got.pi, got.H, got.L) == _bits(
            want.tau, want.rho, want.pi, want.H, want.L)
        assert (got.meta, got.scheme) == (want.meta, want.scheme)

        z, h = rng.normal(size=3), rng.normal(size=3)
        rng.choice([1, -1])  # unused; drawn so the seeded cases that follow stay put
        rec = reconstruct_worldlines(got, z, h)
        ref = samplewise_reconstruct_worldlines(want, z, h)
        assert _bits(rec.tau, rec.events, rec.fp_events, rec.tetrad, rec.h, rec.timelike) == \
            _bits(ref.tau, ref.events, ref.fp_events, ref.tetrad, ref.h, ref.timelike)
        assert rec.Mc == ref.Mc
    assert finished >= 12
    if potential != "none":
        assert collisions >= 2


@pytest.mark.parametrize("potential", ["none", "coulomb"])
def test_explicit_collision_at_the_first_and_last_step_matches_stepwise_oracle(potential):
    """A head-on pass collides at step 1, where the last good sample is the
    initial one, and with n_steps cut to its collision step, at the last
    step; message and last state equal the oracle's bit for bit, and one
    step fewer finishes as the oracle does."""
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([1.0, 0.2, 0.0]),
                        pi=np.array([-1.0, -0.2, 0.0]), charge_product=-2.0, c=2.5, tau=0.5)
    _, first = _evolve_or_error(stepwise_evolve, rel, potential, 3.0, 10)
    assert "during step 1" in str(first)
    assert _bits(*first.last_state) == _bits(rel.tau, rel.rho, rel.pi)
    _, at = _evolve_or_error(stepwise_evolve, rel, potential, 0.02, 1000)
    last = int(re.search(r"during step (\d+)", str(at)).group(1))
    assert last > 10
    for dtau, n_steps, want_err in ((3.0, 10, first), (0.02, last, at)):
        _, err = _evolve_or_error(evolve, rel, potential, dtau, n_steps)
        assert type(err) is CollisionError and str(err) == str(want_err)
        assert _bits(*err.last_state) == _bits(*want_err.last_state)
    got = evolve(rel, potential, 0.02, last - 1)
    want = stepwise_evolve(rel, potential, 0.02, last - 1)
    assert _bits(got.tau, got.rho, got.pi, got.H, got.L) == _bits(
        want.tau, want.rho, want.pi, want.H, want.L)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(arrays(float, 3, elements=hst.floats(-1e3, 1e3)),
       arrays(float, 3, elements=hst.floats(-1e3, 1e3)),
       arrays(float, 3, elements=hst.floats(-1e3, 1e3)),
       hst.floats(-10.0, 10.0), hst.floats(0.1, 10.0), hst.floats(0.1, 10.0),
       hst.floats(0.1, 10.0),
       arrays(float, hst.tuples(hst.integers(1, 6), hst.just(3)),
              elements=hst.floats(-1e3, 1e3)))
def test_numpy_helpers_equal_the_explicit_loops_float_arithmetic(
        rho, pi, rho_next, q, m1, m2, c, momenta):
    """On one 3-vector, dH/drho of the oracle's gradients (coulomb), the
    kinetic energies and the swept-segment distance equal evolve's
    Python-float arithmetic bit for bit; this keeps the explicit loop and
    the numpy helpers that the stepwise oracle and the stacked Mc use in
    step.  On an (n, 3) stack, C- or F-ordered, the kinetic energies of
    collective equal the same float arithmetic row by row."""
    x, y, z = rho.tolist()
    r = math.sqrt((x * x + y * y) + z * z)
    assume(r > 1e-100)
    s = 4.0 * math.pi * r**3
    rel = RelativeState(m1=m1, m2=m2, rho=rho, pi=pi, charge_product=q, c=c)
    g_rho = mc_gradients(rel, "coulomb", rho, pi)[0]
    assert g_rho.tobytes() == np.array([-q * v / s / c for v in (x, y, z)]).tobytes()

    px, py, pz = pi.tolist()
    p2 = (px * px + py * py) + pz * pz
    e1, e2 = restframe._energies(rel, pi)
    assert np.float64(e1).tobytes() == np.float64(math.sqrt((m1 * c) ** 2 + p2)).tobytes()
    assert np.float64(e2).tobytes() == np.float64(math.sqrt((m2 * c) ** 2 + p2)).tobytes()

    masses = np.linspace(m1, m2, len(momenta))
    want = np.array([math.sqrt((m * c) ** 2 + ((px * px + py * py) + pz * pz))
                     for m, (px, py, pz) in zip(masses.tolist(), momenta.tolist())])
    for stack in (momenta, np.asfortranarray(momenta)):
        assert collective._kinetic_energies(masses, stack, c).tobytes() == want.tobytes()

    # the swept segment in numpy arithmetic: the plain dots of _dot3
    d = rho_next - rho
    dd = potentials._dot3(d, d)
    t = 0.0 if dd == 0.0 else min(max(-potentials._dot3(rho, d) / dd, 0.0), 1.0)
    closest = rho + t * d
    want = np.sqrt(potentials._dot3(closest, closest))
    got = restframe._swept_distance(*rho.tolist(), *rho_next.tolist())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("a, b", [
    ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),        # no motion: t = 0
    ((0.0, 0.0, 0.0), (-0.0, 1.0, 0.0)),       # t = -0.0
    ((1.0, 0.0, 0.0), (-1.0, 0.5, 0.0)),       # closest point inside
    ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),        # t < 0
    ((-4.0, -5.0, -6.0), (-1.0, -2.0, -3.0)),  # t > 1
    ((1e300, 0.0, 0.0), (-1e300, 0.0, 0.0)),   # d.d overflows: t is NaN
])
def test_swept_distance_clips_as_the_oracles_min_max(a, b):
    """The swept segment's t is clipped to [0, 1] as min(max(t, 0.0), 1.0)
    clips it, -0.0 and NaN included, so the distance has the bits of the
    numpy arithmetic the stepwise oracle uses."""
    a, b = np.array(a), np.array(b)
    with np.errstate(all="ignore"):
        d = b - a
        dd = potentials._dot3(d, d)
        t = 0.0 if dd == 0.0 else min(max(-potentials._dot3(a, d) / dd, 0.0), 1.0)
        closest = a + t * d
        want = np.sqrt(potentials._dot3(closest, closest))
    got = restframe._swept_distance(*a.tolist(), *b.tolist())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _count_numpy_gradient_calls(monkeypatch):
    """Count every call of a gradient on numpy vectors: the oracle's numpy
    gradients, and relative_potential_gradients under the names potentials
    and restframe would call it by."""
    calls = []
    targets = [(oracles, "rho_gradient"), (oracles, "pi_gradient")] + [
        (module, "relative_potential_gradients") for module in (potentials, restframe)
        if hasattr(module, "relative_potential_gradients")]
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_explicit_evolve_makes_at_most_one_gradient_call(monkeypatch):
    """The explicit leapfrog steps on Python floats, its opening gradient
    included: no numpy gradient is evaluated, not even once per run."""
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([0.0, 0.309, 0.0]), charge_product=-2.0)
    calls = _count_numpy_gradient_calls(monkeypatch)
    evolve(rel, "coulomb", 0.01, 500)
    assert len(calls) == 0


def test_implicit_evolve_makes_no_numpy_gradient_call_per_step(monkeypatch):
    """The implicit Darwin sweeps run on Python floats: the number of numpy
    gradient calls does not grow with n_steps."""
    rel = RelativeState(m1=1.0, m2=1.0, rho=np.array([2.0, 0.0, 0.0]),
                        pi=np.array([0.05, 0.25, 0.0]), charge_product=-1.0, c=3.0)
    calls = _count_numpy_gradient_calls(monkeypatch)
    counts = []
    for n_steps in (10, 200):
        calls.clear()
        evolve(rel, "coulomb+darwin", 0.04, n_steps)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _segments():
    """Segments a -> b, with r_floor: passing near-tangent to the sphere of
    radius r_floor, with the bound |b| - |b - a| at the floor, through the
    origin, of zero length, and short ones far out, |a| >> |b - a|."""
    unit = arrays(float, 3, elements=hst.floats(-1.0, 1.0)).filter(
        lambda v: 1e-3 < float(np.linalg.norm(v)))
    scale = hst.floats(1e-140, 1e140)
    fraction = hst.floats(0.0, 1.0)

    @hst.composite
    def near_tangent(draw):
        r_floor, u, v = draw(scale), draw(unit), draw(unit)
        u = u / np.linalg.norm(u)
        v = v - (v @ u) * u  # perpendicular to u
        assume(np.linalg.norm(v) > 1e-3)
        v = v / np.linalg.norm(v)
        p = u * r_floor * (1.0 + draw(hst.floats(-1e-9, 1e-6)))  # the closest point
        length = r_floor * draw(hst.floats(1e-6, 1e6))
        t = draw(fraction)
        return p - t * length * v, p + (1.0 - t) * length * v, r_floor

    @hst.composite
    def at_the_edge(draw):
        """|b| - |b - a| within 1e-9 of the floor; for a radial step, a
        between the origin and b, the bound is the distance |a| itself."""
        r_floor, u, v = draw(scale), draw(unit), draw(unit)
        v = -u if draw(hst.booleans()) else v
        length = r_floor * draw(hst.floats(1e-6, 1e6))
        b = u / np.linalg.norm(u) * (r_floor * (1.0 + draw(hst.floats(-1e-9, 1e-9))) + length)
        return b + v / np.linalg.norm(v) * length, b, r_floor

    @hst.composite
    def through_origin(draw):
        u, length, t = draw(unit), draw(scale), draw(fraction)
        d = u * length
        return -t * d, (1.0 - t) * d, length * draw(hst.floats(0.0, 1.0))

    @hst.composite
    def zero_length(draw):
        a, r_floor = draw(unit) * draw(scale), draw(scale)
        return a, a.copy(), r_floor

    @hst.composite
    def far_out(draw):
        a = draw(unit) * draw(scale)
        b = a + draw(unit) * float(np.linalg.norm(a)) * draw(hst.floats(1e-16, 1e-3))
        return a, b, float(np.linalg.norm(a)) * draw(hst.floats(0.5, 1.0 + 1e-9))

    return hst.one_of(near_tangent(), at_the_edge(), through_origin(), zero_length(),
                     far_out())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_segments())
def test_the_triangle_bound_skips_only_segments_the_exact_test_passes(segment):
    """Wherever the pre-test skips _swept_distance, the exact test would
    have passed the step too: its distance exceeds the floor (or is NaN,
    which the exact test also passes)."""
    a, b, r_floor = segment
    if bound_clears(*a.tolist(), *b.tolist(), r_floor):
        d = restframe._swept_distance(*a.tolist(), *b.tolist())
        assert d > r_floor or math.isnan(d)


@pytest.mark.parametrize("potential, rho, pi, q", [
    ("none", [1.0, 0.2, 0.0], [-0.5, 0.0, 0.0], 0.0),  # a straight pass at distance 0.2
    ("coulomb", [1.0, 0.0, 0.0], [0.0, 0.2, 0.0], -2.0),  # pericenters near 0.26
    ("coulomb+darwin", [1.0, 0.0, 0.0], [0.0, 0.2, 0.0], -2.0),
])
def test_evolve_runs_the_exact_test_where_the_bound_does_not_clear(
        monkeypatch, potential, rho, pi, q):
    """With the floor just below the closest approach, the triangle bound
    cannot clear the steps around it, and evolve calls _swept_distance
    there; everywhere else it skips the call.  The calls are exactly the
    steps that bound_clears does not clear."""
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array(rho), pi=np.array(pi),
                        charge_product=q, c=2.0)
    rho = evolve(rel, potential, 0.05, 300, collision_fraction=0.0).rho
    radii = np.linalg.norm(rho, axis=1)
    fraction = 0.98 * radii.min() / radii[0]
    calls = []
    swept = restframe._swept_distance
    monkeypatch.setattr(restframe, "_swept_distance", lambda *ab: calls.append(ab) or swept(*ab))
    traj = evolve(rel, potential, 0.05, 300, collision_fraction=fraction)
    r_floor = fraction * float(radii[0])
    steps = [(*a, *b) for a, b in zip(traj.rho[:-1].tolist(), traj.rho[1:].tolist())]
    assert calls == [ab for ab in steps if not bound_clears(*ab, r_floor)]
    assert 0 < len(calls) < len(steps) // 10


@pytest.mark.parametrize("potential", ["coulomb", "coulomb+darwin"])
def test_evolve_errors_match_stepwise_oracle(potential):
    """A coincident start raises SingularPotentialError and a stalled
    implicit substep NonConvergenceError, with the oracle's messages."""
    start = RelativeState(m1=1.0, m2=1.5, rho=np.zeros(3), pi=np.array([0.0, 0.3, 0.0]),
                          charge_product=-2.0, c=3.0, tau=0.5)
    for fn in (evolve, stepwise_evolve):
        with pytest.raises(SingularPotentialError, match="coincide"):
            fn(start, potential, 0.01, 10)
    if potential == "coulomb+darwin":
        rel = RelativeState(m1=1.0, m2=1.5, rho=np.array([0.3, 0.0, 0.0]),
                            pi=np.array([0.0, 2.0, 0.0]), charge_product=-40.0, c=1.0)
        _, err = _evolve_or_error(evolve, rel, potential, 0.05, 50, fp_max_iter=2)
        _, want = _evolve_or_error(stepwise_evolve, rel, potential, 0.05, 50, fp_max_iter=2)
        assert isinstance(want, NonConvergenceError)
        assert type(err) is type(want) and str(err) == str(want)


def test_explicit_step_landing_on_the_origin_is_refused_as_the_oracle_refuses_it():
    """A Coulomb step from rho = (1, 0, 0) with pi = (-4, 0, 0), m = 3 and
    dtau = 0.625 drifts by dtau * 4 * (1/5 + 1/5) = 1 exactly: it lands on
    rho = 0, where the force of its closing half kick is undefined."""
    rel = RelativeState(m1=3.0, m2=3.0, rho=np.array([1.0, 0.0, 0.0]),
                        pi=np.array([-4.0, 0.0, 0.0]), charge_product=-1e-20)
    for fn in (stepwise_evolve, evolve):
        with pytest.raises(SingularPotentialError) as caught:
            fn(rel, "coulomb", 0.625, 3)
        assert str(caught.value) == "potential gradient: particles coincide (|r| = 0.0)"
    assert caught.traceback[-1].name == "evolve"   # evolve's own step test, not a helper's
