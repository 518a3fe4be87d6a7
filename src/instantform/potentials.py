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
scale, or NaN, raise SingularPotentialError.  The energies take stacks of
vectors, shape (..., 3), and return one value per vector.
"""

import math

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


def _dot3(a, b):
    """a . b of 3-vectors, row by row for (..., 3) stacks of one shape (or a
    stack and one 3-vector), as the plain sum (a0 b0 + a1 b1) + a2 b2.
    ``@`` and np.vecdot go through BLAS, whose dot may fuse the multiply-adds
    depending on the CPU; this sum rounds alike for a stack, one vector and
    the same sum on Python floats (evolve's explicit loop).  Indexing the
    transposes costs a third of ``a[..., 0]`` on one vector."""
    a, b = a.T, b.T
    return ((a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]).T


def _sep(r_vec, context):
    r = np.sqrt(_dot3(r_vec, r_vec))
    if np.count_nonzero(r > COINCIDENCE_TOL) < r.size:  # NaN is no separation either
        r_min = float(np.min(r))
        raise SingularPotentialError(f"{context}: particles coincide (|r| = {r_min})")
    return r


def coulomb_energy(q1q2, r_vec):
    """q1*q2 / (4 pi |r|)."""
    r = _sep(np.asarray(r_vec, dtype=float), "coulomb")
    return q1q2 / (4.0 * np.pi * r)


def darwin_energy(q1q2, m1, m2, c, r_vec, p1, p2):
    """Momentum-dependent correction for a particle pair, lab-frame momenta."""
    r_vec = np.asarray(r_vec, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    r = _sep(r_vec, "darwin")
    rhat = r_vec / r[..., None]
    return (
        q1q2
        / (8.0 * np.pi * m1 * m2 * c**2 * r)
        * (_dot3(p1, p2) + _dot3(p1, rhat) * _dot3(p2, rhat))
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


def _charged_pairs(charges):
    """(i, j, q_i q_j) over the pairs i < j that interact: q_i q_j != 0."""
    n = len(charges)
    return [(i, j, q1q2) for i in range(n) for j in range(i + 1, n)
            if (q1q2 := charges[i] * charges[j]) != 0.0]


def _check_apart(charges, positions):
    """Raise SingularPotentialError, by _sep's rule, if two interacting
    particles (q_i q_j != 0) coincide."""
    for i, j, _ in _charged_pairs(charges):
        _sep(positions[i] - positions[j], f"particles[{i}] and particles[{j}]")


def relative_potential_energy(potential, q1q2, m1, m2, c, rho, pi):
    """V(rho, pi) for the two-body relative problem (an energy)."""
    pi = np.asarray(pi, dtype=float)
    return _pair_energy(potential, q1q2, m1, m2, c, rho, pi, -pi)


def relative_potential_gradients(potential, q1q2, m1, m2, c, rho, pi):
    """(dV/drho, dV/dpi) for the relative problem, both 3-vectors (energies):
    the float kernels evolve steps with, at c = 1.0 for their final division
    (exact), so the bits are those of the numpy formula.  Where r^3 or r^5
    underflows to 0 above COINCIDENCE_TOL (|rho| below about 1e-108, or
    1e-65 with the Darwin term), ZeroDivisionError, where numpy gives inf
    or NaN with a warning."""
    if potential not in POTENTIALS:
        raise ValueError(f"unknown potential {potential!r}")
    if potential == "none":
        return np.zeros(3), np.zeros(3)
    q, m1, m2, c = float(q1q2), float(m1), float(m2), float(c)
    state = *np.asarray(rho, dtype=float).tolist(), *np.asarray(pi, dtype=float).tolist()
    if potential == "coulomb":
        return np.array(_dv_drho(*state, q, 1.0, None)), np.zeros(3)
    darwin = -q / (8.0 * math.pi * m1 * m2 * c**2)
    return np.array(_dv_drho(*state, q, 1.0, darwin)), np.array(_dv_dpi(*state, 1.0, darwin))


_FOUR_PI = 4.0 * math.pi


def _pow(r, n):
    """r**n through libm's pow, as numpy's float64 power takes it: inf where
    Python's ** raises OverflowError."""
    try:
        return r**n
    except OverflowError:
        return math.inf


def _dv_drho(x, y, z, px, py, pz, q, c, darwin):
    """dV/drho / c at rho = (x, y, z), pi = (px, py, pz), on floats in numpy's
    operation order (each power through libm's pow): Coulomb, plus the Darwin
    term of coefficient ``darwin`` = -q / (8 pi m1 m2 c^2) unless None."""
    r = math.sqrt((x * x + y * y) + z * z)
    if not r > COINCIDENCE_TOL:
        raise SingularPotentialError(f"potential gradient: particles coincide (|r| = {r})")
    r3 = _pow(r, 3)
    s = _FOUR_PI * r3
    gx, gy, gz = -q * x / s, -q * y / s, -q * z / s
    if darwin is not None:
        pr = (px * x + py * y) + pz * z
        u, v, w, r5 = -((px * px + py * py) + pz * pz), 2.0 * pr, 3.0 * _pow(pr, 2), _pow(r, 5)
        gx = gx + darwin * ((u * x / r3 + v * px / r3) - w * x / r5)
        gy = gy + darwin * ((u * y / r3 + v * py / r3) - w * y / r5)
        gz = gz + darwin * ((u * z / r3 + v * pz / r3) - w * z / r5)
    return gx / c, gy / c, gz / c


def _dv_dpi(x, y, z, px, py, pz, c, darwin):
    """dV/dpi / c of the Darwin term, as _dv_drho (Coulomb has none)."""
    r = math.sqrt((x * x + y * y) + z * z)
    if not r > COINCIDENCE_TOL:
        raise SingularPotentialError(f"potential gradient: particles coincide (|r| = {r})")
    v, r3 = 2.0 * ((px * x + py * y) + pz * z), _pow(r, 3)
    return (darwin * (2.0 * px / r + v * x / r3) / c,
            darwin * (2.0 * py / r + v * y / r3) / c,
            darwin * (2.0 * pz / r + v * z / r3) / c)
