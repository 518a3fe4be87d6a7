import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from instantform import collective
from instantform.collective import (
    ParticleSystem,
    PoincareGenerators,
    center_of_energy,
    center_triple,
    external_generators,
    fokker_pryce_worldline,
    invariant_mass_spin,
    moller_tube_sample,
    newton_wigner_and_jacobi,
    poincare_generators,
    poincare_transform_free,
    tube_radius,
)
from instantform.errors import NonTimelikeError
from instantform.foliation import rotation_from_euler_zyz
from instantform.minkowski import boost_from_h, minkowski_dot, rotation_to_lorentz
from instantform.potentials import coulomb_energy
from helpers import (
    jacobian_bracket,
    momentum_component,
    nw_and_momentum,
    nw_component,
    phase_space_jacobian,
    poisson_bracket,
    random_coulomb_pair,
    random_free_system,
    random_spinning_pair,
    snapshots,
)
from oracles import framewise_moller_tube_sample, pauli_lubanski_spin


def test_generators_shapes_and_antisymmetry():
    rng = np.random.default_rng(1)
    g = poincare_generators(random_free_system(rng, n=4))
    assert g.P.shape == (4,)
    assert g.J.shape == (4, 4)
    np.testing.assert_allclose(g.J, -g.J.T, atol=0)
    assert g.P[0] > 0


def test_generators_conserved_under_free_drift():
    """Re-synchronizing a free snapshot must not move P or J."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        sys = random_free_system(rng, n=3)
        g0 = poincare_generators(sys)
        drifted = poincare_transform_free(sys, new_time=sys.x0 + 3.7)
        g1 = poincare_generators(drifted)
        np.testing.assert_allclose(g1.P, g0.P, atol=1e-12)
        np.testing.assert_allclose(g1.J, g0.J, atol=1e-11)


def test_interacting_energy_includes_potential():
    rng = np.random.default_rng(3)
    sys = random_coulomb_pair(rng)
    g = poincare_generators(sys)
    kinetic = float(np.sum(sys.energies()))
    v = coulomb_energy(sys.charges[0] * sys.charges[1], sys.positions[0] - sys.positions[1])
    assert g.P[0] == pytest.approx(kinetic + v / sys.c, rel=1e-12)


def test_invariant_mass_from_momentum_square():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = poincare_generators(random_free_system(rng, n=3))
        mc, h, _ = invariant_mass_spin(g)
        assert mc**2 == pytest.approx(minkowski_dot(g.P, g.P), rel=1e-12)
        np.testing.assert_allclose(h, g.P[1:] / mc, atol=1e-12)


def test_spin_dual_routes_agree():
    """Pauli-Lubanski spin == axial part of J after boosting to rest."""
    rng = np.random.default_rng(5)
    for _ in range(15):
        sys = random_spinning_pair(rng)
        g = poincare_generators(sys)
        mc, h, s_bar = invariant_mass_spin(g)
        rest = poincare_transform_free(sys, boost_from_h(-h))
        g_rest = poincare_generators(rest)
        direct = np.array([g_rest.J[2, 3], g_rest.J[3, 1], g_rest.J[1, 2]])
        np.testing.assert_allclose(s_bar, direct, atol=1e-10)
        np.testing.assert_allclose(g_rest.P[1:], 0.0, atol=1e-12)
        assert g_rest.P[0] == pytest.approx(mc, abs=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(snapshots(interacting_at_rest=False), hst.sampled_from([1, -1]))
def test_spin_matches_pauli_lubanski_property(sys, sgn):
    """S_bar read off the rest-frame J equals the boosted Pauli-Lubanski vector,
    whichever sign convention the latter is built in."""
    g = poincare_generators(sys)
    np.testing.assert_allclose(invariant_mass_spin(g)[2], pauli_lubanski_spin(g, sgn),
                               rtol=1e-13, atol=1e-13 * np.max(np.abs(g.J)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(snapshots(potentials=("none",)),
       arrays(float, 3, elements=hst.floats(-2.0, 2.0)),
       arrays(float, 3, elements=hst.floats(-np.pi, np.pi)),
       arrays(float, 4, elements=hst.floats(-3.0, 3.0)), hst.floats(-3.0, 3.0))
def test_mass_and_spin_poincare_invariant_property(sys, h, euler, translation, new_time):
    """(Mc, |S_bar|) survive any boost, rotation and translation of a free snapshot."""
    lam = boost_from_h(h) @ rotation_to_lorentz(rotation_from_euler_zyz(euler))
    moved = poincare_transform_free(sys, lam, translation, new_time)
    mc, _, s_bar = invariant_mass_spin(poincare_generators(sys))
    mc2, _, s_bar2 = invariant_mass_spin(poincare_generators(moved))
    assert mc2 == pytest.approx(mc, rel=1e-12)
    scale = mc * (1.0 + np.max(np.abs(sys.positions)))
    assert np.linalg.norm(s_bar2) == pytest.approx(np.linalg.norm(s_bar), abs=1e-12 * scale)


def test_invariants_are_cached_soundly():
    """Repeated calls on one set of generators, in any order, give bit for
    bit what each call gives on fresh generators; the generators are frozen,
    the cached arrays read-only, and a NonTimelikeError raised every time."""
    calls = [
        lambda g: [np.asarray(v).tobytes() for v in invariant_mass_spin(g)],
        lambda g: [v.tobytes() for v in newton_wigner_and_jacobi(g)],
        lambda g: fokker_pryce_worldline(g)(np.array([-1.5, 0.0, 2.0])).tobytes(),
        lambda g: np.asarray(tube_radius(g)).tobytes(),
    ]
    rng = np.random.default_rng(17)
    for _ in range(5):
        sys = random_spinning_pair(rng)
        fresh = [call(poincare_generators(sys)) for call in calls]
        g = poincare_generators(sys)
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [0, 1, 2, 3]):
            for i in order:
                assert calls[i](g) == fresh[i]
    with pytest.raises(FrozenInstanceError):
        g.P = np.zeros(4)
    with pytest.raises(ValueError):
        invariant_mass_spin(g)[1][0] = 0.0
    spacelike = PoincareGenerators(P=np.array([1.0, 2.0, 0.0, 0.0]), J=np.zeros((4, 4)),
                                   evaluation_time=0.0)
    for _ in range(2):                              # the error is not cached
        with pytest.raises(NonTimelikeError):
            invariant_mass_spin(spacelike)


def test_centers_coincide_at_rest():
    rng = np.random.default_rng(7)
    for _ in range(10):
        sys = random_spinning_pair(rng)
        _, h, _ = invariant_mass_spin(poincare_generators(sys))
        rest = poincare_transform_free(sys, boost_from_h(-h))
        g = poincare_generators(rest)
        xe = center_of_energy(g)
        x_nw = newton_wigner_and_jacobi(g)[0]
        fp = fokker_pryce_worldline(g)
        np.testing.assert_allclose(xe, x_nw, atol=1e-12)
        np.testing.assert_allclose(xe, fp(0.0)[1:], atol=1e-12)


def test_centers_differ_when_moving():
    # with spin and momentum the three centers split; degenerate triple
    # would mean the tube tests below check nothing
    rng = np.random.default_rng(8)
    sys = random_spinning_pair(rng, min_spin=0.2)
    trip = center_triple(sys)
    assert np.linalg.norm(trip.X_E0 - trip.x_NW0) > 1e-6
    assert trip.tube_radius > 1e-3


def test_fokker_pryce_line_is_frame_independent():
    """Mapped events land on the transformed system's own center line."""
    rng = np.random.default_rng(9)
    for _ in range(10):
        sys = random_spinning_pair(rng)
        lam = boost_from_h(0.7 * rng.standard_normal(3))
        moved = poincare_transform_free(sys, lam)
        fp1 = fokker_pryce_worldline(poincare_generators(sys))
        g2 = poincare_generators(moved)
        fp2 = fokker_pryce_worldline(g2)
        u2 = boost_from_h(invariant_mass_spin(g2)[1])[:, 0]
        for tau in (-2.0, 0.3, 1.7):
            ev = lam @ fp1(tau)
            t2 = minkowski_dot(u2, ev) - minkowski_dot(u2, fp2(0.0))
            np.testing.assert_allclose(fp2(float(t2)), ev, atol=1e-9)


def test_newton_wigner_brackets_are_canonical():
    """{X^i, X^j} = 0 and {X^i, P^j} = delta by central differences."""
    rng = np.random.default_rng(10)
    for _ in range(5):
        sys = random_spinning_pair(rng)
        for i in range(3):
            for j in range(i, 3):
                assert poisson_bracket(
                    nw_component(i), nw_component(j), sys
                ) == pytest.approx(0.0, abs=1e-8)
            for j in range(3):
                want = 1.0 if i == j else 0.0
                assert poisson_bracket(
                    nw_component(i), momentum_component(j), sys
                ) == pytest.approx(want, abs=1e-8)


def test_jacobian_brackets_equal_pairwise_brackets_bitwise():
    """One Jacobian of (X_NW, P) gives every bracket that 12 separate
    pairs of gradients give, to the bit."""
    rng = np.random.default_rng(1006)
    pairs = [(nw_component(i), nw_component(j), i, j)
             for i in range(3) for j in range(i + 1, 3)]
    pairs += [(nw_component(i), momentum_component(j), i, 3 + j)
              for i in range(3) for j in range(3)]
    for _ in range(3):
        sys = random_free_system(rng)
        jac = phase_space_jacobian(nw_and_momentum, sys)
        for f, g, a, b in pairs:
            assert jacobian_bracket(jac, a, b) == poisson_bracket(f, g, sys)


def test_energy_center_brackets_do_not_vanish():
    # sanity that the bracket machinery has teeth: X_E is not canonical
    rng = np.random.default_rng(11)
    sys = random_spinning_pair(rng, min_spin=0.2)

    def xe_component(k):
        def f(s):
            return float(center_of_energy(poincare_generators(s))[k])
        return f

    worst = max(
        abs(poisson_bracket(xe_component(i), xe_component(j), sys))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert worst > 1e-4


def test_tube_bound_and_nondegeneracy():
    rng = np.random.default_rng(12)
    sys = random_spinning_pair(rng, min_spin=0.1)
    sample = moller_tube_sample(sys, n_frames=300, rapidity_max=3.0, seed=5)
    assert np.all(sample.distances <= sample.bound * (1 + 1e-9))
    assert sample.max_distance > 0.5 * sample.bound
    assert sample.bound == pytest.approx(
        tube_radius(poincare_generators(sys)), rel=1e-12
    )


def test_tube_sample_is_reproducible():
    rng = np.random.default_rng(13)
    sys = random_spinning_pair(rng)
    a = moller_tube_sample(sys, n_frames=50, rapidity_max=2.0, seed=9)
    b = moller_tube_sample(sys, n_frames=50, rapidity_max=2.0, seed=9)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.events_lab, b.events_lab)


@pytest.mark.parametrize("rapidity_max", [math.nan, math.inf])
def test_tube_sample_refuses_a_non_finite_rapidity_range(rapidity_max):
    sys = random_spinning_pair(np.random.default_rng(14))
    with pytest.raises(ValueError, match="rapidity_max"):
        moller_tube_sample(sys, n_frames=10, rapidity_max=rapidity_max)


@pytest.mark.parametrize("rapidity_max", [0.0, 3.0])
@pytest.mark.parametrize("n_frames", [1, 2, 100, 500])
def test_tube_sample_matches_framewise_oracle(n_frames, rapidity_max):
    rng = np.random.default_rng(17)
    for seed in range(4):
        sys = random_spinning_pair(rng)
        got = moller_tube_sample(sys, n_frames, rapidity_max, seed=seed)
        want = framewise_moller_tube_sample(sys, n_frames, rapidity_max, seed=seed)
        assert got.rapidities.tobytes() == want.rapidities.tobytes()
        assert got.directions.tobytes() == want.directions.tobytes()
        assert got.bound == want.bound
        np.testing.assert_allclose(got.distances, want.distances,
                                   rtol=0, atol=1e-13 * want.bound)
        scale = np.max(np.abs(want.events_lab))
        np.testing.assert_allclose(got.events_lab, want.events_lab,
                                   rtol=0, atol=1e-13 * scale)
        if rapidity_max == 0.0:
            lab = np.concatenate(([0.0], center_of_energy(poincare_generators(sys), 0.0)))
            np.testing.assert_allclose(got.events_lab, np.broadcast_to(lab, (n_frames, 4)),
                                       rtol=0, atol=1e-13 * scale)


def test_tube_sample_boosts_all_frames_in_two_stacked_calls(monkeypatch):
    sys = random_spinning_pair(np.random.default_rng(18))
    calls = []

    def counted(h):
        calls.append(np.shape(h))
        return boost_from_h(h)

    monkeypatch.setattr(collective, "boost_from_h", counted)
    moller_tube_sample(sys, n_frames=500, rapidity_max=3.0, seed=1)
    # the rest-frame boost that PoincareGenerators caches, then one stacked
    # call for the frame boosts; their inverses are sign flips of those
    assert len(calls) <= 2


H_ENTRIES = hst.one_of(hst.floats(-1e150, 1e150),
                       hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e150, -1e150]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(arrays(float, hst.tuples(hst.integers(0, 6), hst.just(3)), elements=H_ENTRIES))
def test_inverse_boost_is_the_boost_with_row_and_column_0_negated(h):
    """boost_from_h(-h) is boost_from_h(h) with the h of row 0 and column 0
    negated, bit for bit: gamma and the h h^T block square the signs away.
    moller_tube_sample builds its inverse frame boosts that way."""
    inv = boost_from_h(h).copy()
    inv[:, 0, 1:] = inv[:, 1:, 0] = -h
    assert inv.tobytes() == boost_from_h(-h).tobytes()


def test_tube_offset_closed_form():
    """Boost orthogonal to the spin: offset = tanh(xi) |S_perp| / Mc."""
    rng = np.random.default_rng(14)
    for _ in range(8):
        sys = random_spinning_pair(rng, min_spin=0.1)
        _, h, _ = invariant_mass_spin(poincare_generators(sys))
        rest = poincare_transform_free(sys, boost_from_h(-h))
        g = poincare_generators(rest)
        mc, _, s_bar = invariant_mass_spin(g)

        sdir = s_bar / np.linalg.norm(s_bar)
        perp = np.cross(sdir, [0.0, 0.0, 1.0])
        if np.linalg.norm(perp) < 0.3:
            perp = np.cross(sdir, [0.0, 1.0, 0.0])
        perp /= np.linalg.norm(perp)
        xi = float(rng.uniform(0.3, 2.5))

        lam = boost_from_h(np.sinh(xi) * perp)
        p_f = lam @ g.P
        j_f = lam @ g.J @ lam.T
        xe_frame = j_f[1:, 0] / p_f[0]
        back = boost_from_h(-np.sinh(xi) * perp) @ np.concatenate(([0.0], xe_frame))
        static_center = g.J[1:, 0] / mc
        offset = np.linalg.norm(back[1:] - static_center)
        s_perp = np.linalg.norm(s_bar - (s_bar @ perp) * perp)
        assert offset == pytest.approx(np.tanh(xi) * s_perp / mc, abs=1e-9)


def test_external_generators_round_trip():
    """Frozen Jacobi data -> generators -> same invariants and center."""
    rng = np.random.default_rng(15)
    for _ in range(10):
        g = poincare_generators(random_spinning_pair(rng))
        mc, h, s_bar = invariant_mass_spin(g)
        x_nw, z, _ = newton_wigner_and_jacobi(g)
        g2 = external_generators(z, h, mc, s_bar)
        mc2, h2, s2 = invariant_mass_spin(g2)
        assert mc2 == pytest.approx(mc, rel=1e-12)
        np.testing.assert_allclose(h2, h, atol=1e-12)
        np.testing.assert_allclose(s2, s_bar, atol=1e-10)
        np.testing.assert_allclose(
            newton_wigner_and_jacobi(g2)[0], x_nw, atol=1e-10
        )


def test_transform_refuses_interacting_snapshots():
    rng = np.random.default_rng(16)
    sys = random_coulomb_pair(rng)
    with pytest.raises(ValueError):
        poincare_transform_free(sys, np.eye(4))


def test_particle_system_validation():
    with pytest.raises(ValueError):
        ParticleSystem(
            masses=np.array([1.0, -1.0]),
            positions=np.zeros((2, 3)),
            momenta=np.zeros((2, 3)),
        )
    with pytest.raises(ValueError):
        ParticleSystem(
            masses=np.array([1.0, 1.0]),
            positions=np.zeros((2, 3)),  # coincident, charged
            momenta=np.zeros((2, 3)),
            charges=np.array([1.0, -1.0]),
            potential="coulomb",
        )


@pytest.mark.parametrize("field", ["masses", "positions", "momenta", "charges"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_particle_system_refuses_non_finite_inputs(field, bad):
    """Also where no other rule trips: NaN slips past m <= 0 and |r| <= tol."""
    kw = dict(masses=np.array([1.0, 2.0]),
              positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
              momenta=np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]]),
              charges=np.array([1.0, -1.0]), potential="coulomb")
    kw[field] = kw[field].copy()
    kw[field].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        ParticleSystem(**kw)
