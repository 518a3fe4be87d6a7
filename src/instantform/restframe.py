"""Rest-frame instant form: internal coordinates, relative dynamics, world-lines.

An isolated system is described by frozen collective data (the Jacobi data
z = Mc * x_NW(0) and h = P/Mc) together with internal coordinates
(eta_i, kappa_i) living on the instantaneous 3-space orthogonal to the total
momentum (the Wigner 3-space) with the covariant center as origin.  The
internal data satisfy two rest-frame conditions:

    sum_i kappa_i = 0            (internal momentum vanishes)
    K_int = 0                    (energy-weighted moment vanishes, which
                                  pins the origin to the covariant center)

to_rest_frame builds that representation from an arbitrary lab snapshot;
evolve integrates the two-body relative motion with the invariant mass as
Hamiltonian; reconstruct_worldlines maps an internal trajectory back to lab
world-lines x_i(tau) = z_W(tau, eta_i(tau)), the Wigner-hyperplane chart
z_W(tau, sigma) = X_FP(tau) + eps_r(h) sigma^r, with eps_r(h) the spatial
columns of the standard boost.

Internally c = 1 style units: tau is a length (c times rest time), momenta
are in momentum units, and the Hamiltonian is Mc (an energy divided by c).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import collective
from .errors import CollisionError, NonConvergenceError, NonTimelikeError, SingularPotentialError
from .foliation import Embedding
from .minkowski import _cross3, _dot3, _mv, boost_from_h, interval
from .potentials import (
    _FOUR_PI,
    COINCIDENCE_TOL,
    POTENTIALS,
    _dv_dpi,
    _dv_drho,
    relative_potential_energy,
)

__all__ = [
    "RestFrameState",
    "InternalGenerators",
    "RelativeState",
    "Trajectory",
    "ReconstructedWorldlines",
    "to_rest_frame",
    "internal_generators",
    "relative_state",
    "rest_frame_from_relative",
    "invariant_mass_hamiltonian",
    "evolve",
    "reconstruct_worldlines",
    "wigner_hyperplane_embedding",
]


@dataclass
class RestFrameState:
    """Internal (Wigner 3-space) representation of a snapshot.

    etas and kappas have shape (n, 3) and satisfy the two rest-frame
    conditions; (Mc, h, z) are the frozen collective data, identical to what
    module collective computes for the same snapshot.
    """

    masses: np.ndarray
    etas: np.ndarray
    kappas: np.ndarray
    charges: np.ndarray
    potential: str
    Mc: float
    h: np.ndarray
    z: np.ndarray
    S_bar: np.ndarray
    tau: float = 0.0
    c: float = 1.0
    projection_residual: tuple = (0.0, 0.0)

    @property
    def n(self):
        return self.masses.shape[0]


def to_rest_frame(sys):
    """Map a lab snapshot to its rest-frame instant-form representation.

    Boosts every particle with the standard boost of -h (3-vectors land in
    the Wigner 3-space, so no extra rotation is applied), re-synchronizes the
    boosted events along straight lines at the rest time tau of the
    Newton-Wigner center's event at lab time x0, and translates the origin so
    the energy-weighted moment vanishes.  A snapshot at rest is not moved
    (tau = x0).  For free systems the straight-line step is exact and the
    rest-frame conditions hold to rounding; for interacting snapshots in
    motion the drift ignores forces, so the conditions are enforced by an
    exact constraint projection whose size is recorded in
    ``projection_residual``.
    """
    g = collective.poincare_generators(sys)
    mc, h, s_bar = collective.invariant_mass_spin(g)
    x_nw, z, _ = collective.newton_wigner_and_jacobi(g)

    to_rest = g._rest[3]
    center = np.concatenate(([sys.x0], x_nw + sys.x0 * g.P[1:] / g.P[0]))
    tau = float(_mv(to_rest[:1], center)[0])
    x_rest, kappas = collective.map_and_resync(sys, to_rest, np.zeros(4), tau)
    kap = kappas.sum(axis=0)
    kappas -= kap / sys.n

    e_int, moment = collective.energy_and_moment(
        sys.potential, sys.masses, sys.charges, sys.c, x_rest, kappas)
    shift = moment / e_int
    etas = x_rest - shift

    return RestFrameState(
        masses=sys.masses.copy(),
        etas=etas,
        kappas=kappas,
        charges=sys.charges.copy(),
        potential=sys.potential,
        Mc=mc,
        h=h,
        z=z,
        S_bar=s_bar,
        tau=tau,
        c=sys.c,
        projection_residual=(math.sqrt(_dot3(kap, kap)), math.sqrt(_dot3(shift, shift))),
    )


@dataclass
class InternalGenerators:
    """Internal realization of mass, momentum, spin and boost moment."""

    E_int: float          # internal energy in momentum units; equals Mc
    P_int: np.ndarray     # sum of internal momenta; zero on the constraint
    S_bar: np.ndarray     # internal spin sum eta x kappa
    K_int: np.ndarray     # energy-weighted moment; zero at the covariant center


def internal_generators(st):
    """Evaluate the internal generators of a rest-frame state."""
    e_int, k_int = collective.energy_and_moment(
        st.potential, st.masses, st.charges, st.c, st.etas, st.kappas)
    p_int = st.kappas.sum(axis=0)
    s_bar = np.sum(_cross3(st.etas, st.kappas), axis=0)
    return InternalGenerators(E_int=float(e_int), P_int=p_int, S_bar=s_bar, K_int=k_int)


@dataclass
class RelativeState:
    """Two-body relative coordinates on the Wigner 3-space at rest time tau."""

    m1: float
    m2: float
    rho: np.ndarray
    pi: np.ndarray
    charge_product: float = 0.0
    c: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.rho.shape != (3,) or self.pi.shape != (3,):
            raise ValueError("rho and pi must be 3-vectors")
        if not np.isfinite(np.concatenate((self.rho, self.pi,
                                           [self.charge_product, self.tau]))).all():
            raise ValueError("rho, pi, charge_product and tau must be finite")
        if not (self.m1 > 0 and self.m2 > 0):
            raise ValueError("masses must be positive")
        if not self.c > 0:
            raise ValueError("c must be positive")


def relative_state(st):
    """Extract the two-body relative coordinates from a rest-frame state."""
    if st.n != 2:
        raise ValueError(f"relative coordinates need exactly 2 particles, got {st.n}")
    return RelativeState(
        m1=float(st.masses[0]),
        m2=float(st.masses[1]),
        rho=st.etas[0] - st.etas[1],
        pi=0.5 * (st.kappas[0] - st.kappas[1]),
        charge_product=float(st.charges[0] * st.charges[1]),
        c=st.c,
        tau=st.tau,
    )


def rest_frame_from_relative(rel, potential, z=None, h=None, charges=None):
    """Embed relative coordinates back into a full rest-frame state.

    The individual positions follow from the conditions kappa_1 = -kappa_2 =
    pi and K_int = 0, which give energy weights

        eta_1 = (E2 + V/2c)/Mc * rho,     eta_2 = -(E1 + V/2c)/Mc * rho.
    """
    if potential not in POTENTIALS:
        raise ValueError(f"potential must be one of {POTENTIALS}")
    mc, w1, w2 = _mass_and_weights(rel, potential, rel.rho, rel.pi)
    etas = np.array([w1 * rel.rho, -w2 * rel.rho])
    kappas = np.array([rel.pi, -rel.pi])
    if charges is None:
        # any split with the right product reproduces the pair potential
        q = np.sqrt(abs(rel.charge_product))
        charges = np.array([q, np.sign(rel.charge_product) * q]) if q else np.zeros(2)
    if z is None:
        z = np.zeros(3)
    if h is None:
        h = np.zeros(3)
    return RestFrameState(
        masses=np.array([rel.m1, rel.m2]),
        etas=etas,
        kappas=kappas,
        charges=np.asarray(charges, dtype=float),
        potential=potential,
        Mc=float(mc),
        h=np.asarray(h, dtype=float),
        z=np.asarray(z, dtype=float),
        S_bar=_cross3(rel.rho, rel.pi),
        tau=rel.tau,
        c=rel.c,
    )


def _energies(rel, pi):
    """Kinetic energies (E1, E2) of the pair at relative momenta pi (..., 3)."""
    return (collective._kinetic_energies(rel.m1, pi, rel.c),
            collective._kinetic_energies(rel.m2, pi, rel.c))


def _mass_and_weights(rel, potential, rho, pi):
    """(Mc, w1, w2) at (rho, pi), both (..., 3): Mc = E1 + E2 + V/c, and the
    energy weights w1 = (E2 + V/2c)/Mc, w2 = (E1 + V/2c)/Mc of eta_1 = w1 rho,
    eta_2 = -w2 rho.  ``rel`` is a RelativeState or a Trajectory."""
    e1, e2 = _energies(rel, pi)
    v = relative_potential_energy(
        potential, rel.charge_product, rel.m1, rel.m2, rel.c, rho, pi
    ) / rel.c
    mc = e1 + e2 + v
    return mc, (e2 + 0.5 * v) / mc, (e1 + 0.5 * v) / mc


def invariant_mass_hamiltonian(rel, potential):
    """Mc(rho, pi): the invariant mass of the pair, in momentum units."""
    return float(_mass_and_weights(rel, potential, rel.rho, rel.pi)[0])


_FP_TOL = 1e-12  # relative update at which evolve's implicit substeps stop


@dataclass
class Trajectory:
    """Sampled relative trajectory with conserved quantities along the way."""

    tau: np.ndarray
    rho: np.ndarray
    pi: np.ndarray
    H: np.ndarray
    L: np.ndarray
    m1: float
    m2: float
    charge_product: float
    potential: str
    c: float
    dtau: float
    scheme: str
    meta: dict = field(default_factory=dict)

    @property
    def energy_drift(self):
        return float(np.max(np.abs(self.H - self.H[0])) / abs(self.H[0]))


def _swept_distance(ax, ay, az, bx, by, bz):
    """Closest approach to the origin of the straight segment a -> b, on
    floats, in minkowski._dot3's plain sums.  Both evolve schemes decide a
    collision by it, where the triangle bound does not already pass the step."""
    dx, dy, dz = bx - ax, by - ay, bz - az
    dd = (dx * dx + dy * dy) + dz * dz
    t = 0.0 if dd == 0.0 else -((ax * dx + ay * dy) + az * dz) / dd
    # clipped to [0, 1] as min(max(t, 0.0), 1.0) clips it, NaN and -0.0 kept
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    cx, cy, cz = ax + t * dx, ay + t * dy, az + t * dz
    return math.sqrt((cx * cx + cy * cy) + cz * cz)


# The triangle bound: every point of the segment a -> b lies at least
# |b| - |b - a| from the origin.  Rounding moves it and _swept_distance by a
# few ulps of |b|, far below _BOUND_RTOL of it; _BOUND_ATOL covers squares
# that underflow (at most 1e-161 in either norm).
_BOUND_RTOL, _BOUND_ATOL = 1e-12, 1e-150


def _fixed_point(update, ux, uy, uz, max_iter, what, k):
    """Iterate u <- update(u) until an update moves no component by more
    than _FP_TOL * max(1, |u|_inf): u and the sweeps it took.  A NaN update
    never converges; NonConvergenceError after ``max_iter`` sweeps."""
    for sweep in range(1, max_iter + 1):
        nx, ny, nz = update(ux, uy, uz)
        dx, dy, dz = abs(nx - ux), abs(ny - uy), abs(nz - uz)
        ux, uy, uz = nx, ny, nz
        tol = _FP_TOL * max(1.0, abs(ux), abs(uy), abs(uz))
        if dx <= tol and dy <= tol and dz <= tol:
            return ux, uy, uz, sweep
    raise NonConvergenceError(f"implicit {what} substep stalled at step {k} "
                              f"(last update {np.max((dx, dy, dz)):.3e})")


def _darwin_step(x, y, z, px, py, pz, q, c, darwin, m1c2, m2c2, dtau, max_iter, k):
    """Implicit step k of evolve for the Darwin pair: rho and pi at its end,
    and the most fixed-point sweeps either substep took."""
    half = 0.5 * dtau

    def kick(hx, hy, hz):
        gx, gy, gz = _dv_drho(x, y, z, hx, hy, hz, q, c, darwin)
        return px - half * gx, py - half * gy, pz - half * gz

    hx, hy, hz, kick_sweeps = _fixed_point(kick, px, py, pz, max_iter, "momentum", k)
    # symmetric drift, implicit in the updated position; the momentum and
    # with it the kinetic part (vx, vy, vz) of dH/dpi stay fixed
    p2 = (hx * hx + hy * hy) + hz * hz
    w = 1.0 / math.sqrt(m1c2 + p2) + 1.0 / math.sqrt(m2c2 + p2)
    vx, vy, vz = hx * w, hy * w, hz * w
    ax, ay, az = _dv_dpi(x, y, z, hx, hy, hz, c, darwin)
    ax, ay, az = vx + ax, vy + ay, vz + az

    def drift(nx, ny, nz):
        bx, by, bz = _dv_dpi(nx, ny, nz, hx, hy, hz, c, darwin)
        return (x + half * (ax + (vx + bx)), y + half * (ay + (vy + by)),
                z + half * (az + (vz + bz)))

    nx, ny, nz, drift_sweeps = _fixed_point(
        drift, x + dtau * ax, y + dtau * ay, z + dtau * az, max_iter, "position", k)
    gx, gy, gz = _dv_drho(nx, ny, nz, hx, hy, hz, q, c, darwin)
    return (nx, ny, nz, hx - half * gx, hy - half * gy, hz - half * gz,
            max(kick_sweeps, drift_sweeps))


def evolve(rel, potential, dtau, n_steps, fp_max_iter=50, collision_fraction=1e-3):
    """Integrate the relative motion under the invariant-mass Hamiltonian.

    The samples sit at rest times rel.tau + k * dtau, k = 0..n_steps.

    A fixed-step second-order symmetric (generalized leapfrog) scheme:
    momentum-independent potentials use the explicit kick-drift-kick form,
    first same as last: dH/drho does not depend on pi there, so the
    gradient of each closing half kick opens the next step.  The Darwin
    term makes dH/drho depend on pi and dH/dpi on rho, so those substeps
    turn implicit and are solved by fixed-point iteration to a relative
    update of ``meta["fp_tol"]`` = 1e-12 (NonConvergenceError after
    ``fp_max_iter`` >= 1 sweeps); the momentum sweeps evaluate only dH/drho and
    the position sweeps only dH/dpi.

    Both schemes step on Python floats in numpy's operation order: the pair
    force is potentials' _dv_drho and _dv_dpi, every dot the plain sum of
    minkowski._dot3, so the samples do not depend on the machine's BLAS and
    numpy warns of nothing.  On a 2-core Xeon (Python 3.11) a step takes
    about 1.2 us explicit and 14 us implicit (the Darwin pair of
    configs/evolve.json at c = 10).  The loop stores rho and pi only, six
    floats a sample in one flat list that becomes the (n, 6) array in one
    pass; Mc and the angular momentum rho x pi are evaluated over the whole
    trajectory once it is done.  The checks of Mc at the start and at every
    sample cost about 10-20 us a call.

    Raises CollisionError, carrying the last good sample, when a step passes
    within ``collision_fraction`` times the initial separation of rho = 0
    (checked against the whole straight segment swept during the step, so a
    plunge cannot tunnel through the singularity between samples), and
    SingularPotentialError, as at a coincident start, when a step lands
    within COINCIDENCE_TOL of rho = 0.  The exact test, _swept_distance,
    runs only where the triangle bound |b| - |b - a| does not already clear
    that floor, which leaves every sample and every error as it alone decides.
    Raises OverflowError before the first step when |rho0|, the collision
    floor, (m c)^2 or Mc is not finite, and after the loop naming the first
    sample k whose Mc is not finite; then NonTimelikeError, as
    reconstruction raises it, naming the first sample k (the start is
    sample 0) whose Mc is not positive.  All take Mc from
    _mass_and_weights, as Trajectory.H does, under a local np.errstate.
    A float fault inside step k (such as ZeroDivisionError where the Darwin
    r^5 underflows to 0) is re-raised as the same type, naming k, |rho| and
    the scheme.
    """
    if potential not in POTENTIALS:
        raise ValueError(f"potential must be one of {POTENTIALS}")
    if not 0 < dtau < math.inf:
        raise ValueError(f"dtau must be positive and finite, got {dtau}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not fp_max_iter >= 1:
        raise ValueError(f"fp_max_iter must be >= 1, got {fp_max_iter}")

    implicit = potential == "coulomb+darwin"
    coulomb = potential == "coulomb"
    scheme = "generalized-leapfrog(implicit)" if implicit else "leapfrog"
    x, y, z = rel.rho.tolist()
    px, py, pz = rel.pi.tolist()
    q, m1, m2, c, dtau = (float(v) for v in (rel.charge_product, rel.m1, rel.m2, rel.c, dtau))
    half = 0.5 * dtau
    separation = math.sqrt((x * x + y * y) + z * z)
    r_floor = collision_fraction * separation
    # Mc as Trajectory.H takes it: a coincident pair fails on V before any
    # step, and Mc is tried only below an inf (m c)^2, which Python's ** raises on
    m_c = max(m1, m2) * c
    mc = math.inf
    if m_c * m_c < math.inf:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mc = float(_mass_and_weights(rel, potential, rel.rho, rel.pi)[0])
    if not (math.isfinite(r_floor) and math.isfinite(mc)):
        raise OverflowError(f"the initial state overflows: |rho0| = {separation:.3e}, "
                            f"m c = {m_c:.3e}, Mc = {mc:.3e}")
    m1c2, m2c2 = (m1 * c) ** 2, (m2 * c) ** 2
    darwin = -q / (8.0 * math.pi * m1 * m2 * c**2) if implicit else None
    max_sweeps = 0
    taus = rel.tau + dtau * np.arange(n_steps + 1)
    flat = [x, y, z, px, py, pz]  # rho and pi, six floats per sample

    gx = gy = gz = 0.0
    if coulomb:  # opens the first explicit step
        gx, gy, gz = _dv_drho(x, y, z, px, py, pz, q, c, None)
    shrink, reach = 1.0 - 2.0 * _BOUND_RTOL, r_floor + _BOUND_ATOL
    sqrt, inf, nq, four_pi = math.sqrt, math.inf, -q, _FOUR_PI
    try:
        for k in range(1, n_steps + 1):
            if implicit:
                nx, ny, nz, px, py, pz, sweeps = _darwin_step(
                    x, y, z, px, py, pz, q, c, darwin, m1c2, m2c2, dtau, fp_max_iter, k)
                max_sweeps = max(max_sweeps, sweeps)
                r = sqrt((nx * nx + ny * ny) + nz * nz)
            else:
                hx, hy, hz = px - half * gx, py - half * gy, pz - half * gz
                p2 = (hx * hx + hy * hy) + hz * hz
                w = 1.0 / sqrt(m1c2 + p2) + 1.0 / sqrt(m2c2 + p2)
                # dV/dpi is zero here and is still added, as +0.0, so the
                # signed zeros of dH/dpi match
                nx = x + dtau * (hx * w + 0.0)
                ny = y + dtau * (hy * w + 0.0)
                nz = z + dtau * (hz * w + 0.0)
                r = sqrt((nx * nx + ny * ny) + nz * nz)
                # potentials._dv_drho written out for Coulomb: a call per step
                # took this loop from 2.13 to 2.45 us/step (+15%; 2-core Xeon,
                # Python 3.11) with the same bits, which the stepwise oracle pins
                if coulomb:
                    if not r > COINCIDENCE_TOL:
                        raise SingularPotentialError(
                            f"potential gradient: particles coincide (|r| = {r})")
                    try:
                        s = four_pi * r**3
                    except OverflowError:  # numpy's r**3 is inf, and the force zero
                        s = inf
                    gx, gy, gz = nq * nx / s / c, nq * ny / s / c, nq * nz / s / c
                px, py, pz = hx - half * gx, hy - half * gy, hz - half * gz
            # the triangle bound, with r = |b|, before the exact test
            dx, dy, dz = nx - x, ny - y, nz - z
            e = r * shrink - reach
            if (not (0.0 < e < inf and e * e > (dx * dx + dy * dy) + dz * dz)
                    and _swept_distance(x, y, z, nx, ny, nz) <= r_floor):
                raise CollisionError(
                    f"separation fell below {r_floor:.3e} during step {k}",
                    last_state=(float(taus[k - 1]), np.array(flat[-6:-3]), np.array(flat[-3:])))
            x, y, z = nx, ny, nz
            flat += (x, y, z, px, py, pz)
    except ArithmeticError as exc:  # such as an r**5 that underflows to 0
        raise type(exc)(f"{exc} at step {k} of {scheme} "
                        f"(|rho| = {math.hypot(x, y, z):.3e})") from exc

    states = np.fromiter(flat, float, len(flat)).reshape(-1, 6)
    rhos, pis = states[:, :3], states[:, 3:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mc = _mass_and_weights(rel, potential, rhos, pis)[0]
    finite = np.isfinite(mc)
    if not finite.all():
        k = int(finite.argmin())
        raise OverflowError(f"Mc is not finite at step {k} (tau = {taus[k]:.3e}, "
                            f"dtau = {dtau:.3e})")
    # the sign is checked once every sample is finite, the start's included
    positive = mc > 0
    if not positive.all():
        k = int(positive.argmin())
        raise NonTimelikeError(f"Mc must be positive: Mc = {mc[k]:.3e} at step {k} "
                               f"(tau = {taus[k]:.3e}, dtau = {dtau:.3e})")
    return Trajectory(
        tau=taus, rho=rhos, pi=pis, H=mc, L=_cross3(rhos, pis),
        m1=rel.m1, m2=rel.m2, charge_product=rel.charge_product,
        potential=potential, c=rel.c, dtau=float(dtau), scheme=scheme,
        meta={"fp_tol": _FP_TOL, "max_fixed_point_sweeps": max_sweeps},
    )


@dataclass
class ReconstructedWorldlines:
    """Lab world-lines of both particles sampled along a trajectory."""

    tau: np.ndarray
    events: np.ndarray         # shape (2, n_samples, 4)
    fp_events: np.ndarray      # covariant center world-line samples
    tetrad: np.ndarray         # eps_r(h): columns 1..3 of the standard boost
    h: np.ndarray
    Mc: float
    timelike: np.ndarray       # per particle, per segment

    @property
    def all_timelike(self):
        return bool(np.all(self.timelike))


def reconstruct_worldlines(traj, z, h):
    """Map an internal trajectory to lab world-lines.

    x_i(tau) = z_W(tau, eta_i(tau)): wigner_hyperplane_embedding of the frozen
    Jacobi data (z, h), with Mc and S_bar from the trajectory's initial
    sample, evaluated at each internal position.  Each segment of each
    world-line is checked to be causal (non-spacelike); flags are reported
    per segment in ``timelike``.
    """
    h = np.asarray(h, dtype=float)
    mc = float(traj.H[0])
    chart = wigner_hyperplane_embedding(z, h, mc, _cross3(traj.rho[0], traj.pi[0]))
    _, w1, w2 = _mass_and_weights(traj, traj.potential, traj.rho, traj.pi)
    events = np.array([chart(traj.tau, w[:, None] * traj.rho) for w in (w1, -w2)])

    timelike = interval(np.diff(events, axis=1)) >= -1e-12
    return ReconstructedWorldlines(
        tau=traj.tau.copy(),
        events=events,
        fp_events=chart.fokker_pryce(traj.tau),
        tetrad=chart.tetrad,
        h=h,
        Mc=mc,
        timelike=timelike,
    )


def wigner_hyperplane_embedding(z, h, mc, s_bar):
    """The foliation whose 3-spaces are the Wigner hyperplanes of (z, h).

    z_W(tau, sigma) = X_FP(tau) + eps_r(h) sigma^r.  The chart is inertial
    (its induced metric is exactly Minkowski), so radar_coordinates inverts
    it in one Newton step.  The chart also carries its origin line X_FP as
    ``fokker_pryce`` and its axes eps_r(h) as ``tetrad``.
    """
    g = collective.external_generators(z, h, mc, s_bar)
    fp = collective.fokker_pryce_worldline(g)
    boost = boost_from_h(np.asarray(h, dtype=float))
    tetrad = boost[:, 1:]

    chart = Embedding(lambda tau, sigma: fp(tau) + _mv(tetrad, sigma),
                      jacobian=lambda tau, sigma: boost.copy(), name="wigner-hyperplane")
    chart.fokker_pryce, chart.tetrad = fp, tetrad
    return chart
