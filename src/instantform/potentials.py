"""Interaction potentials shared by the snapshot and relative-motion modules.

Rationalized Gaussian units: the Coulomb energy between charges q1, q2 at
separation r is q1*q2 / (4 pi r).  The post-Coulomb momentum-dependent
correction (Darwin-type) between two particles is frozen here, in one place,
as

    V_D(r, p1, p2) = + q1 q2 / (8 pi m1 m2 c^2 r) * (p1.p2 + (p1.rhat)(p2.rhat))

which in the two-body rest frame (p1 = -p2 = pi) becomes

    V_D(rho, pi) = - q1 q2 / (8 pi m1 m2 c^2 |rho|) * (pi^2 + (pi.rhohat)^2).

All potentials return energies; callers divide by c where momentum units are
required.  Separations at or below ``COINCIDENCE_TOL`` times the natural
scale raise SingularPotentialError.  The energies take stacks of vectors,
shape (..., 3), and return one value per vector.
"""

import numpy as np

from .errors import SingularPotentialError

__all__ = [
    "KINETIC_KINDS",
    "POTENTIALS",
    "coulomb_energy",
    "darwin_energy",
    "relative_potential_energy",
    "relative_potential_gradients",
]

POTENTIALS = ("none", "coulomb", "coulomb+darwin")
# two-body kinetic energies of relquant.kinetic_dispersion
KINETIC_KINDS = ("salpeter", "nonrelativistic")

COINCIDENCE_TOL = 1e-300


# Stacked dots use np.vecdot, which rounds each row as the one-vector
# ``a @ b`` does, so a stack gives each vector's own answer bit for bit.
def _sep(r_vec, context):
    r = np.sqrt(np.vecdot(r_vec, r_vec))
    if np.count_nonzero(r <= COINCIDENCE_TOL):
        r_min = float(np.min(r))
        raise SingularPotentialError(f"{context}: particles coincide (|r| = {r_min})")
    return r


def coulomb_energy(q1q2, r_vec):
    """q1*q2 / (4 pi |r|)."""
    r = _sep(r_vec, "coulomb")
    return q1q2 / (4.0 * np.pi * r)


def darwin_energy(q1q2, m1, m2, c, r_vec, p1, p2):
    """Momentum-dependent correction for a particle pair, lab-frame momenta."""
    r_vec = np.asarray(r_vec, dtype=float)
    r = _sep(r_vec, "darwin")
    rhat = r_vec / r[..., None]
    return (
        q1q2
        / (8.0 * np.pi * m1 * m2 * c**2 * r)
        * (np.vecdot(p1, p2) + np.vecdot(p1, rhat) * np.vecdot(p2, rhat))
    )


def _pair_energy(potential, q1q2, m1, m2, c, r_vec, p1, p2):
    """Potential energy of one pair: Coulomb plus, for coulomb+darwin, the
    Darwin term with momenta p1, p2."""
    if potential == "none":
        return 0.0
    v = coulomb_energy(q1q2, r_vec)
    if potential == "coulomb":
        return v
    if potential == "coulomb+darwin":
        return v + darwin_energy(q1q2, m1, m2, c, r_vec, p1, p2)
    raise ValueError(f"unknown potential {potential!r}")


def pair_energies(potential, masses, charges, c, positions, momenta):
    """[(i, j, V_ij)] over the charged pairs of a snapshot, V_ij an energy; the
    Darwin term takes each particle's own momentum.  Empty for potential none."""
    out = []
    if potential == "none":
        return out
    n = masses.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            q1q2 = charges[i] * charges[j]
            if q1q2 != 0.0:
                v = _pair_energy(potential, q1q2, masses[i], masses[j], c,
                                 positions[i] - positions[j], momenta[i], momenta[j])
                out.append((i, j, v))
    return out


def relative_potential_energy(potential, q1q2, m1, m2, c, rho, pi):
    """V(rho, pi) for the two-body relative problem (an energy)."""
    rho = np.asarray(rho, dtype=float)
    return _pair_energy(potential, q1q2, m1, m2, c, rho, pi, -np.asarray(pi, dtype=float))


def relative_potential_gradients(potential, q1q2, m1, m2, c, rho, pi):
    """(dV/drho, dV/dpi) for the relative problem, both 3-vectors (energies)."""
    rho = np.asarray(rho, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if potential == "none":
        return np.zeros(3), np.zeros(3)
    r = _sep(rho, "potential gradient")
    g_rho = -q1q2 * rho / (4.0 * np.pi * r**3)
    g_pi = np.zeros(3)
    if potential == "coulomb+darwin":
        a = -q1q2 / (8.0 * np.pi * m1 * m2 * c**2)
        pr = pi @ rho
        g_rho = g_rho + a * (
            -(pi @ pi) * rho / r**3 + 2.0 * pr * pi / r**3 - 3.0 * pr**2 * rho / r**5
        )
        g_pi = a * (2.0 * pi / r + 2.0 * pr * rho / r**3)
    elif potential != "coulomb":
        raise ValueError(f"unknown potential {potential!r}")
    return g_rho, g_pi
