"""Collective observables of relativistic particle snapshots.

A snapshot lists particle positions at one common lab time together with
their momenta.  From it we build the ten Poincare generators, then the
frame-invariant content (Mc and h = P/Mc from P, rest spin S_bar from J in
the rest frame) and the three inequivalent relativistic collective centers:

* the center of energy (Moller): the energy-weighted average position.  It is
  NOT the spatial part of any four-vector; different frames disagree about
  where it is, and the disagreement fills a world-tube;
* the center of inertia (Fokker-Pryce): the unique covariant center
  world-line, obtained by boosting the rest-frame center back to the lab;
* the canonical center (Newton-Wigner): the position with canonical Poisson
  brackets, which lies between the other two.

Conventions: four-momenta in momentum units (p0 = E/c = sqrt(m^2 c^2 + p^2));
interaction energies enter the time components divided by c.  The boost
moment of an interacting pair is the pair potential weighted at the midpoint
of the two positions, which reduces to the standard free-particle generators
as charges go to zero.  The Darwin term of a pair takes each particle's own
momentum, for lab snapshots and rest-frame states (module restframe) alike.

The energy radius |S_bar| / Mc bounds the center-of-energy world-tube:
moller_tube_sample measures the tube by computing the center of energy in
many boosted frames and mapping the results back.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonTimelikeError
from .minkowski import boost_from_h
from .potentials import POTENTIALS, _charged_pairs, _check_apart, _dot3, _pair_energy

__all__ = [
    "ParticleSystem",
    "PoincareGenerators",
    "CenterTriple",
    "TubeSample",
    "poincare_generators",
    "invariant_mass_spin",
    "center_of_energy",
    "fokker_pryce_worldline",
    "newton_wigner_and_jacobi",
    "tube_radius",
    "center_triple",
    "external_generators",
    "poincare_transform_free",
    "moller_tube_sample",
]


def _kinetic_energies(masses, momenta, c):
    """sqrt(m^2 c^2 + p^2) in momentum units, one per momentum of a (..., 3)
    stack, with p^2 the plain sum of potentials._dot3."""
    return np.sqrt((masses * c) ** 2 + _dot3(momenta, momenta))


@dataclass
class ParticleSystem:
    """Particle snapshot at one common lab time ``x0`` (a length, = c*t).

    positions and momenta have shape (n, 3); momenta are in momentum units.
    ``potential`` is one of "none", "coulomb", "coulomb+darwin" and applies
    pairwise between all charged particles, two of which may then not
    coincide (SingularPotentialError).
    """

    masses: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    charges: np.ndarray = None
    potential: str = "none"
    x0: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        self.masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        self.positions = np.asarray(self.positions, dtype=float)
        self.momenta = np.asarray(self.momenta, dtype=float)
        n = self.masses.shape[0]
        if self.charges is None:
            self.charges = np.zeros(n)
        self.charges = np.atleast_1d(np.asarray(self.charges, dtype=float))
        if self.positions.shape != (n, 3) or self.momenta.shape != (n, 3):
            raise ValueError(
                f"positions and momenta must have shape ({n}, 3); got "
                f"{self.positions.shape} and {self.momenta.shape}"
            )
        if self.charges.shape != (n,):
            raise ValueError(f"charges must have shape ({n},)")
        if not np.isfinite(np.concatenate((self.masses, self.charges, self.positions.ravel(),
                                           self.momenta.ravel()))).all():
            raise ValueError("masses, positions, momenta and charges must be finite")
        if np.any(self.masses <= 0.0):
            raise ValueError("masses must be positive")
        if self.potential not in POTENTIALS:
            raise ValueError(f"potential must be one of {POTENTIALS}")
        if not self.c > 0.0:
            raise ValueError("c must be positive")
        self.x0 = float(self.x0)
        if self.potential != "none":
            _check_apart(self.charges, self.positions)

    @property
    def n(self):
        return self.masses.shape[0]

    def energies(self):
        """Kinetic particle energies in momentum units, sqrt(m^2 c^2 + p^2)."""
        return _kinetic_energies(self.masses, self.momenta, self.c)


@dataclass(frozen=True)
class PoincareGenerators:
    """Ten conserved generators of a snapshot: P^mu and antisymmetric J^{mu nu}.

    J[k, 0] holds J^{k0} = sum_i x_i^k E_i/c + potential moments - x0 P^k,
    which is time-independent along the motion, so the center of energy at
    any lab time y0 is (J^{k0} + y0 P^k) / P^0.  P and J must not be
    modified in place: the invariants are computed once and cached.
    """

    P: np.ndarray
    J: np.ndarray
    evaluation_time: float
    c: float = 1.0

    @cached_property
    def _rest(self):
        """(Mc, h, S_bar, boost to rest, rest center) from one rest-frame
        transform j = L(-h) J L(-h)^T: S_bar = (j23, j31, j12) is its rotation
        part and the static covariant center j^{k0}/Mc its boost part.  The
        arrays are read-only; a NonTimelikeError is not cached."""
        p4 = self.P
        m2 = p4[0] ** 2 - p4[1:] @ p4[1:]
        if m2 <= 0.0 or p4[0] <= 0.0:
            raise NonTimelikeError(
                f"total momentum {p4} is not future timelike; invariant mass undefined"
            )
        mc = float(np.sqrt(m2))
        h = p4[1:] / mc
        to_rest = boost_from_h(-h)
        j = to_rest @ self.J @ to_rest.T
        s_bar = np.array([j[2, 3], j[3, 1], j[1, 2]])
        x_rest = j[1:, 0] / mc
        for a in (h, s_bar, to_rest, x_rest):
            a.flags.writeable = False
        return mc, h, s_bar, to_rest, x_rest


def energy_and_moment(potential, masses, charges, c, positions, momenta):
    """Total energy sum E_i + sum V_ij/c, in momentum units, and energy-weighted
    moment sum x_i E_i + sum (V_ij/c)(x_i + x_j)/2 of particles at positions
    with momenta, V_ij over the charged pairs."""
    energies = _kinetic_energies(masses, momenta, c)
    v_sum, moment = 0, positions.T @ energies
    if potential != "none":
        for i, j, q1q2 in _charged_pairs(charges):
            v = _pair_energy(potential, q1q2, masses[i], masses[j], c,
                             positions[i] - positions[j], momenta[i], momenta[j])
            v_sum += v
            moment += (v / c) * 0.5 * (positions[i] + positions[j])
    return energies.sum() + v_sum / c, moment


def poincare_generators(sys):
    """Build the ten Poincare generators from a snapshot."""
    p4 = np.empty(4)
    p4[0], boost_moment = energy_and_moment(
        sys.potential, sys.masses, sys.charges, sys.c, sys.positions, sys.momenta)
    p4[1:] = sys.momenta.sum(axis=0)

    jmat = np.zeros((4, 4))
    orbital = sys.positions.T @ sys.momenta            # sum_i x_i^j p_i^k
    jmat[1:, 1:] = orbital - orbital.T                 # J^{jk} = sum x^j p^k - x^k p^j
    jk0 = boost_moment - sys.x0 * p4[1:]
    jmat[1:, 0] = jk0
    jmat[0, 1:] = -jk0
    return PoincareGenerators(P=p4, J=jmat, evaluation_time=sys.x0, c=sys.c)


def invariant_mass_spin(g):
    """(Mc, h, S_bar) of a set of generators.

    Mc = sqrt(P.P) in momentum units, h = P/(Mc), and S_bar the rotation
    part of J in the rest frame, as read-only cached arrays.  Raises
    NonTimelikeError for non-timelike or past-pointing total momentum.
    """
    return g._rest[:3]


def center_of_energy(g, time=None):
    """Moller center of energy X_E at lab time ``time`` (default: g's time)."""
    if time is None:
        time = g.evaluation_time
    return (g.J[1:, 0] + time * g.P[1:]) / g.P[0]


def fokker_pryce_worldline(g):
    """Covariant center of inertia as a map tau -> event (tau = rest time c t).

    Constructed by transforming the generators to the rest frame, where all
    three centers coincide at the static point J_rest^{k0}/Mc, and boosting
    that world-line back with the standard boost of h.
    """
    _, h, _, _, x_rest = g._rest
    back = boost_from_h(h)

    def line(tau):
        tau = np.asarray(tau, dtype=float)
        ev = np.empty(tau.shape + (4,))
        ev[..., 0] = tau
        ev[..., 1:] = x_rest
        return ev @ back.T

    return line


def newton_wigner_and_jacobi(g):
    """Canonical (Newton-Wigner) center at lab time 0 and frozen Jacobi data.

    x_NW(0) = [J^{k0} + (S_bar x P) / (Mc + P^0)] / P^0, which has vanishing
    mutual Poisson brackets and canonical brackets with P (checked by the
    test suite via finite-difference brackets), and lies on the segment
    between the center of energy and the center of inertia.  The Jacobi data
    are z = Mc * x_NW(0) and h = P/Mc.
    """
    mc, h, s_bar = invariant_mass_spin(g)
    x_nw = (g.J[1:, 0] + np.cross(s_bar, g.P[1:]) / (mc + g.P[0])) / g.P[0]
    return x_nw, mc * x_nw, h


def tube_radius(g):
    """Energy radius |S_bar| / Mc of the center-of-energy world-tube."""
    mc, _, s_bar = invariant_mass_spin(g)
    return float(np.linalg.norm(s_bar) / mc)


@dataclass
class CenterTriple:
    """The three collective centers of one snapshot plus tube data."""

    Mc: float
    h: np.ndarray
    S_bar: np.ndarray
    X_E0: np.ndarray           # center of energy at lab time 0
    x_NW0: np.ndarray          # canonical center at lab time 0
    fp_line: object            # callable tau -> event
    tube_radius: float


def center_triple(sys):
    g = poincare_generators(sys)
    mc, h, s_bar = invariant_mass_spin(g)
    return CenterTriple(
        Mc=mc,
        h=h,
        S_bar=s_bar,
        X_E0=center_of_energy(g, 0.0),
        x_NW0=newton_wigner_and_jacobi(g)[0],
        fp_line=fokker_pryce_worldline(g),
        tube_radius=tube_radius(g),
    )


def external_generators(z, h, mc, s_bar, c=1.0):
    """Generators of a collective pseudo-particle from frozen Jacobi data.

    Inverts newton_wigner_and_jacobi: given (z, h) plus the invariants
    (Mc, S_bar), rebuild (P, J) so that center constructions can be reused.
    """
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    s_bar = np.asarray(s_bar, dtype=float)
    if not mc > 0:
        raise NonTimelikeError("Mc must be positive")
    p4 = mc * np.concatenate(([np.sqrt(1.0 + h @ h)], h))
    x_nw = z / mc
    jk0 = p4[0] * x_nw - np.cross(s_bar, p4[1:]) / (mc + p4[0])
    jvec = np.cross(x_nw, p4[1:]) + s_bar      # total angular momentum
    jmat = np.zeros((4, 4))
    jmat[1:, 0] = jk0
    jmat[0, 1:] = -jk0
    # J^{jk} = eps^{jkl} Jvec_l
    jmat[1, 2], jmat[2, 1] = jvec[2], -jvec[2]
    jmat[2, 3], jmat[3, 2] = jvec[0], -jvec[0]
    jmat[3, 1], jmat[1, 3] = jvec[1], -jvec[1]
    return PoincareGenerators(P=p4, J=jmat, evaluation_time=0.0, c=c)


def map_and_resync(sys, lam, a, new_time):
    """(positions, momenta) after x -> lam x + a on each event and four-momentum
    (no a), with each event slid along its new straight line to time new_time."""
    e = sys.energies()
    p4 = np.concatenate((e[:, None], sys.momenta), axis=1) @ lam.T
    events = np.concatenate((np.full((sys.n, 1), sys.x0), sys.positions), axis=1)
    events = events @ lam.T + a
    vel = p4[:, 1:] / p4[:, :1]                  # dx/dx0 = p/p0
    return events[:, 1:] + vel * (new_time - events[:, :1]), p4[:, 1:].copy()


def poincare_transform_free(sys, lam=None, translation=None, new_time=0.0):
    """Exact Poincare transform of a free snapshot (re-synchronized).

    Each straight world-line is mapped event-wise by x -> lam x + translation
    and intersected with the new common time ``new_time``.  Valid only for
    potential "none"; interacting snapshots are not a collection of straight
    lines, so their exact transform needs the dynamics.
    """
    if sys.potential != "none":
        raise ValueError("exact snapshot transforms require a free system")
    if lam is None:
        lam = np.eye(4)
    lam = np.asarray(lam, dtype=float)
    a = np.zeros(4) if translation is None else np.asarray(translation, dtype=float)
    x_new, p_new = map_and_resync(sys, lam, a, new_time)
    return ParticleSystem(
        masses=sys.masses.copy(),
        positions=x_new,
        momenta=p_new,
        charges=sys.charges.copy(),
        potential="none",
        x0=float(new_time),
        c=sys.c,
    )


@dataclass
class TubeSample:
    """Result of sampling the center-of-energy world-tube over random frames.

    ``distances[k]`` is the rest-frame transverse offset of frame k's center
    of energy from the covariant center; all of them are bounded by
    ``bound`` = |S_bar| / Mc, and the supremum approaches the bound as the
    rapidity range grows.
    """

    distances: np.ndarray
    rapidities: np.ndarray
    directions: np.ndarray
    bound: float
    events_lab: np.ndarray = field(repr=False, default=None)

    @property
    def max_distance(self):
        return float(np.max(self.distances))


def moller_tube_sample(sys, n_frames, rapidity_max, seed=0):
    """Sample the Moller world-tube of a snapshot.

    For each of ``n_frames`` random frames (isotropic boost direction,
    rapidity uniform on [0, rapidity_max]), compute the center of energy in
    that frame from the tensor-transformed generators, map the event back to
    the lab, then measure its transverse distance from the covariant center
    in the system rest frame (where the covariant center is static, so the
    distance is time-independent).  rapidity_max = 0 reproduces the lab
    center of energy itself.  All frames go through one stacked pass: one
    boost_from_h call for the frame boosts, whose inverses are sign flips.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if not 0 <= rapidity_max < np.inf:
        raise ValueError(f"rapidity_max must be finite and >= 0, got {rapidity_max}")
    g = poincare_generators(sys)
    to_rest, x_rest = g._rest[3:]

    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_frames, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    xis = rng.uniform(0.0, rapidity_max, size=n_frames)

    hf = np.sinh(xis)[:, None] * dirs
    lam = boost_from_h(hf)
    inv = lam.copy()  # boost_from_h(-hf) bit for bit: the same gamma and h h^T block
    inv[:, 0, 1:] = inv[:, 1:, 0] = -hf
    events_f = np.zeros((n_frames, 4))                   # centers of energy, frame time 0
    events_f[:, 1:] = (lam @ g.J @ lam.mT)[:, 1:, 0] / (lam[:, 0] @ g.P)[:, None]
    events_lab = (inv @ events_f[:, :, None])[:, :, 0]
    distances = np.linalg.norm((events_lab @ to_rest.T)[:, 1:] - x_rest, axis=1)
    return TubeSample(
        distances=distances,
        rapidities=xis,
        directions=dirs,
        bound=tube_radius(g),
        events_lab=events_lab,
    )
