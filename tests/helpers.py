"""Shared factories and finite-difference machinery for the tests."""

import numpy as np
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from instantform.collective import (
    ParticleSystem,
    invariant_mass_spin,
    newton_wigner_and_jacobi,
    poincare_generators,
)
from instantform.potentials import POTENTIALS

# lattice sites keep every pair at least 3 - sqrt(3) apart after jitter
_SITES = 3.0 * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def random_free_system(rng, n=2, mass_scale=1.0, momentum_scale=0.6,
                       position_scale=2.0, c=1.0):
    return ParticleSystem(
        masses=mass_scale * rng.uniform(0.5, 2.0, size=n),
        positions=position_scale * rng.standard_normal((n, 3)),
        momenta=momentum_scale * rng.standard_normal((n, 3)),
        x0=float(rng.uniform(-1.0, 1.0)),
        c=c,
    )


def random_spinning_pair(rng, min_spin=0.05, c=1.0):
    """Free two-particle system whose rest-frame spin is bounded away from 0."""
    for _ in range(200):
        sys = random_free_system(rng, n=2, c=c)
        mc, _, s_bar = invariant_mass_spin(poincare_generators(sys))
        if np.linalg.norm(s_bar) > min_spin * mc:
            return sys
    raise RuntimeError("could not draw a usefully spinning pair")


def random_coulomb_pair(rng, charge_product=-1.0, potential="coulomb", c=1.0):
    sys = random_free_system(rng, n=2, c=c)
    # keep the pair well separated so the potential stays mild
    sep = sys.positions[0] - sys.positions[1]
    r = np.linalg.norm(sep)
    if r < 1.0:
        sys.positions[0] += (1.5 - r) * sep / max(r, 1e-12)
    q = np.sqrt(abs(charge_product))
    return ParticleSystem(
        masses=sys.masses,
        positions=sys.positions,
        momenta=sys.momenta,
        charges=np.array([q, np.sign(charge_product) * q]),
        potential=potential,
        x0=sys.x0,
        c=c,
    )


@hst.composite
def snapshots(draw, potentials=POTENTIALS, interacting_at_rest=True):
    """Snapshots of 2-4 particles under each of ``potentials`` at any lab
    time: free ones at rest or moving; interacting ones at rest (where
    to_rest_frame has no straight-line drift to make) unless
    ``interacting_at_rest`` is False."""
    n = draw(hst.integers(2, 4))
    potential = draw(hst.sampled_from(potentials))
    free = potential == "none"
    unit = hst.floats(-0.5, 0.5)
    momenta = draw(arrays(float, (n, 3), elements=unit))
    if (not free and interacting_at_rest) or draw(hst.booleans()):
        momenta -= momenta.mean(axis=0)
    return ParticleSystem(
        masses=draw(arrays(float, n, elements=hst.floats(1.0, 2.0))),
        positions=_SITES[:n] + draw(arrays(float, (n, 3), elements=unit)),
        momenta=momenta,
        charges=draw(arrays(float, n, elements=hst.sampled_from([-0.5, 0.0, 0.5]))),
        potential=potential,
        x0=draw(hst.floats(-1.0, 1.0)),
    )


def phase_space_jacobian(f, sys, eps=1e-5):
    """Central-difference Jacobian of a vector f(system) over (x_i^k, p_i^k).

    Returns (df_dx, df_dp), each shaped (m, n, 3) for an f with m components
    (m = 1 for a scalar f).  f is evaluated 12 n times, however many
    components it has.  Used by the canonical bracket checks; deliberately
    knows nothing about the generators' analytic structure.
    """
    n = sys.n
    cols = []
    for i in range(n):
        for k in range(3):
            for arr in (sys.positions, sys.momenta):
                keep = arr[i, k]
                arr[i, k] = keep + eps
                fp = np.asarray(f(sys), dtype=float)
                arr[i, k] = keep - eps
                fm = np.asarray(f(sys), dtype=float)
                arr[i, k] = keep
                cols.append((fp - fm) / (2 * eps))
    jac = np.moveaxis(np.reshape(cols, (n, 3, 2, -1)), -1, 0)   # (m, i, k, x|p)
    return np.ascontiguousarray(jac[..., 0]), np.ascontiguousarray(jac[..., 1])


def phase_space_gradient(f, sys, eps=1e-5):
    """Central-difference gradient of a scalar f(system) over (x_i^k, p_i^k).

    Returns (df_dx, df_dp), each shaped (n, 3).
    """
    df_dx, df_dp = phase_space_jacobian(f, sys, eps)
    return df_dx[0], df_dp[0]


def jacobian_bracket(jac, a, b):
    """Poisson bracket {f_a, f_b} of two components of a phase_space_jacobian."""
    df_dx, df_dp = jac
    return float(np.sum(df_dx[a] * df_dp[b]) - np.sum(df_dx[b] * df_dp[a]))


def poisson_bracket(f, g, sys, eps=1e-5):
    fx, fp = phase_space_gradient(f, sys, eps)
    gx, gp = phase_space_gradient(g, sys, eps)
    return float(np.sum(fx * gp) - np.sum(gx * fp))


def nw_component(k):
    def f(sys):
        return float(newton_wigner_and_jacobi(poincare_generators(sys))[0][k])
    return f


def momentum_component(k):
    def f(sys):
        return float(poincare_generators(sys).P[k + 1])
    return f


def nw_and_momentum(sys):
    """(X_NW^1..3 at lab time 0, P^1..3): one vector for all canonical brackets."""
    g = poincare_generators(sys)
    return np.concatenate((newton_wigner_and_jacobi(g)[0], g.P[1:]))
