"""3+1 foliations of flat space-time and their induced geometry.

A simultaneity convention is described by an embedding z(tau, sigma) mapping
surface coordinates (tau, sigma^1, sigma^2, sigma^3) to space-time events.
From its Jacobian we obtain the induced 4-metric on the coordinate grid, the
future unit normal of the tau = const surfaces, lapse and shift, the
extrinsic curvature, and the Moller admissibility tests that decide whether
the embedding is a physically usable notion of simultaneity:

1. the lapse is positive (surfaces advance into the future everywhere),
2. the surfaces are spacelike (time-time block keeps its sign, the spatial
   3-metric has three positive eigenvalues),
3. the surfaces settle to a single spacelike hyperplane far away (checked on
   the outermost coordinate shell of a finite grid).

The 3-metric can further be split into volume, shape and orientation degrees
of freedom: its eigenvalues are written lam_a^2 with

    lam_a = phi_tilde^(1/3) * exp(sum_b gamma[a, b] * R[b]),

phi_tilde = sqrt(det g3) the volume density, R the two shape coordinates
(gamma columns are zero-sum and orthonormal, so volume factors drop out of
the exponent), and the eigenvector frame encoded as Z-Y-Z Euler angles.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, DegenerateSurfaceError
from .minkowski import boost_from_h, metric

__all__ = [
    "Embedding",
    "GridSpec",
    "GeometryAtPoint",
    "MetricEigenData",
    "AdmissibilityReport",
    "Violation",
    "GAMMA_DEFAULT",
    "induced_geometry",
    "extrinsic_curvature",
    "metric_eigendecomposition",
    "metric_from_eigendata",
    "rotation_from_euler_zyz",
    "euler_zyz_from_rotation",
    "check_admissibility",
    "identity_embedding",
    "tilted_embedding",
    "make_rotating_embedding",
]

#: Zero-sum orthonormal shape directions: columns (1,-1,0)/sqrt2, (1,1,-2)/sqrt6.
GAMMA_DEFAULT = np.array(
    [
        [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
        [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
        [0.0, -2.0 / np.sqrt(6.0)],
    ]
)


class Embedding:
    """An embedding z(tau, sigma) with optional closed-form Jacobian.

    Parameters
    ----------
    z : callable
        (tau, sigma) -> length-4 array, sigma a length-3 array.
    jacobian : callable, optional
        (tau, sigma) -> (4, 4) array with column A equal to dz/dsigma^A,
        A ordered (tau, 1, 2, 3).  When omitted, central finite differences
        of z with step ``fd_step`` times the local coordinate scale are used.
    name : str
        Used in error messages and reports.
    fd_step : float
        Relative finite-difference step (default 1e-4).
    """

    def __init__(self, z, jacobian=None, name="embedding", fd_step=1e-4):
        self._z = z
        self._jacobian = jacobian
        self.name = name
        self.fd_step = float(fd_step)

    def __call__(self, tau, sigma):
        out = np.asarray(self._z(float(tau), np.asarray(sigma, dtype=float)), dtype=float)
        if out.shape != (4,):
            raise ValueError(f"{self.name}: z must return a 4-vector, got shape {out.shape}")
        return out

    def _step(self, tau, sigma):
        scale = max(1.0, abs(tau), float(np.max(np.abs(sigma))))
        return self.fd_step * scale

    def jacobian(self, tau, sigma):
        """(4, 4) matrix J with J[:, A] = dz/dsigma^A, A in (tau, 1, 2, 3)."""
        sigma = np.asarray(sigma, dtype=float)
        if self._jacobian is not None:
            jac = np.asarray(self._jacobian(float(tau), sigma), dtype=float)
            if jac.shape != (4, 4):
                raise ValueError(f"{self.name}: jacobian must be 4x4, got {jac.shape}")
            return jac
        h = self._step(tau, sigma)
        jac = np.empty((4, 4))
        jac[:, 0] = (self(tau + h, sigma) - self(tau - h, sigma)) / (2.0 * h)
        for r in range(3):
            dp = np.zeros(3)
            dp[r] = h
            jac[:, r + 1] = (self(tau, sigma + dp) - self(tau, sigma - dp)) / (2.0 * h)
        return jac


def _shift(sigma, r, h):
    out = np.array(sigma, dtype=float)
    out[r] += h
    return out


@dataclass
class GridSpec:
    """Cartesian evaluation grid: tau samples times a centered sigma box."""

    tau_min: float
    tau_max: float
    n_tau: int
    sigma_extent: float
    n_sigma: int

    def __post_init__(self):
        if self.n_tau < 1 or self.n_sigma < 2:
            raise ValueError("grid needs n_tau >= 1 and n_sigma >= 2")
        if not self.tau_max >= self.tau_min:
            raise ValueError("tau_max must be >= tau_min")
        if not self.sigma_extent > 0:
            raise ValueError("sigma_extent must be positive")

    def tau_values(self):
        if self.n_tau == 1:
            return np.array([0.5 * (self.tau_min + self.tau_max)])
        return np.linspace(self.tau_min, self.tau_max, self.n_tau)

    def sigma_axis(self):
        return np.linspace(-self.sigma_extent, self.sigma_extent, self.n_sigma)


@dataclass
class GeometryAtPoint:
    """Induced geometry of a foliation at one coordinate point."""

    tau: float
    sigma: np.ndarray
    sgn: int
    g4: np.ndarray        # 4x4 induced metric g_AB
    g3: np.ndarray        # 3x3 spatial metric, -sgn * g4[1:, 1:]
    normal: np.ndarray    # future unit normal l^mu, <l,l> = sgn
    lapse: float
    shift_cov: np.ndarray  # N_r
    shift_con: np.ndarray  # N^r = g3^{rs} N_s


def _covariant_normal(jac):
    """n_mu = eps_{mu nu rho si} z1^nu z2^rho z3^si via cofactor expansion."""
    m = jac[:, 1:]
    n = np.empty(4)
    rows = (
        ((1, 2, 3), 1.0),
        ((0, 2, 3), -1.0),
        ((0, 1, 3), 1.0),
        ((0, 1, 2), -1.0),
    )
    for mu, (idx, sign) in enumerate(rows):
        n[mu] = sign * np.linalg.det(m[list(idx), :])
    return n


def induced_geometry(emb, tau, sigma, sgn=1):
    """Evaluate metric, normal, lapse and shift of ``emb`` at (tau, sigma).

    Raises DegenerateSurfaceError when the three surface tangents fail to
    span a spacelike 3-plane (vanishing or non-timelike normal).
    """
    sigma = np.asarray(sigma, dtype=float)
    jac = emb.jacobian(tau, sigma)
    return _geometry(emb, tau, sigma, jac, _induced_metric(jac, sgn), sgn)


def _induced_metric(jac, sgn):
    """Symmetrized induced 4-metric g_AB = J^T eta J."""
    g4 = jac.T @ metric(sgn) @ jac
    return 0.5 * (g4 + g4.T)


def _geometry(emb, tau, sigma, jac, g4, sgn):
    """The GeometryAtPoint of Jacobian ``jac`` and its induced metric ``g4``."""
    eta = metric(sgn)
    g3 = -sgn * g4[1:, 1:]

    n_cov = _covariant_normal(jac)
    scale = float(np.prod(np.linalg.norm(jac[:, 1:], axis=0)))
    if np.linalg.norm(n_cov) <= 1e-12 * max(scale, 1e-300):
        raise DegenerateSurfaceError(
            f"{emb.name}: tangent vectors at tau={tau}, sigma={sigma} are "
            "numerically linearly dependent"
        )
    n_up = sgn * (eta @ n_cov)          # raise the index; eta^-1 = eta for |sgn|=1
    q = n_up[0] ** 2 - n_up[1:] @ n_up[1:]
    if q <= 0.0:
        raise DegenerateSurfaceError(
            f"{emb.name}: surface normal at tau={tau}, sigma={sigma} is not "
            "timelike; the 3-surface is not spacelike there"
        )
    ell = n_up / np.sqrt(q)
    if ell[0] < 0.0:
        ell = -ell

    lapse = float(sgn * (jac[:, 0] @ eta @ ell))
    shift_cov = -sgn * g4[0, 1:]
    shift_con = np.linalg.solve(g3, shift_cov)
    return GeometryAtPoint(
        tau=float(tau),
        sigma=sigma.copy(),
        sgn=sgn,
        g4=g4,
        g3=g3,
        normal=ell,
        lapse=lapse,
        shift_cov=shift_cov,
        shift_con=shift_con,
    )


def extrinsic_curvature(emb, tau, sigma, sgn=1, fd_step=None):
    """Extrinsic curvature K_rs of the tau = const surface through the point.

    Uses the lapse/shift form

        K_rs = (N_{r|s} + N_{s|r} - d_tau g3_rs) / (2 N)

    with the shift covariant derivatives taken with respect to g3.  The
    spatial and tau derivatives of g3 and N_r are central finite differences
    of the induced geometry.  Raises AdmissibilityError when the lapse is not
    positive at the evaluation point.
    """
    sigma = np.asarray(sigma, dtype=float)
    center = induced_geometry(emb, tau, sigma, sgn)
    if not center.lapse > 0.0:
        raise AdmissibilityError(
            f"{emb.name}: lapse {center.lapse:.3e} at tau={tau}, sigma={sigma} "
            "is not positive; extrinsic curvature undefined"
        )
    if fd_step is None:
        fd_step = emb.fd_step
    h = fd_step * max(1.0, abs(tau), float(np.max(np.abs(sigma))))

    dg3 = np.empty((3, 3, 3))   # dg3[t] = d g3 / d sigma^t
    dshift = np.empty((3, 3))   # dshift[s, r] = d N_r / d sigma^s
    for t in range(3):
        gp = induced_geometry(emb, tau, _shift(sigma, t, h), sgn)
        gm = induced_geometry(emb, tau, _shift(sigma, t, -h), sgn)
        dg3[t] = (gp.g3 - gm.g3) / (2.0 * h)
        dshift[t] = (gp.shift_cov - gm.shift_cov) / (2.0 * h)
    gp = induced_geometry(emb, tau + h, sigma, sgn)
    gm = induced_geometry(emb, tau - h, sigma, sgn)
    dtau_g3 = (gp.g3 - gm.g3) / (2.0 * h)

    # Christoffel symbols of g3, first kind:
    # gamma_{t,rs} = (d_r g3_ts + d_s g3_tr - d_t g3_rs) / 2
    gamma1 = 0.5 * (dg3.transpose(1, 0, 2) + dg3.transpose(1, 2, 0) - dg3)
    # N_{r|s} = d_s N_r - gamma^t_{rs} N_t = d_s N_r - g3^{tu} gamma1[u,r,s] N_t
    nt = np.linalg.inv(center.g3) @ center.shift_cov          # N^u
    cov = dshift.T - np.tensordot(nt, gamma1, axes=1)
    return (cov + cov.T - dtau_g3) / (2.0 * center.lapse)


@dataclass
class MetricEigenData:
    """Volume / shape / orientation split of a 3-metric.

    Satisfies g3 = V diag(lam^2) V^T with lam sorted descending, V a proper
    rotation, phi_tilde = prod(lam) = sqrt(det g3), and
    lam_a = phi_tilde^(1/3) exp(sum_b gamma[a,b] R[b]).
    """

    phi_tilde: float
    R: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    V: np.ndarray
    gamma: np.ndarray = field(default_factory=lambda: GAMMA_DEFAULT.copy())

    def reconstruct(self):
        return metric_from_eigendata(self.phi_tilde, self.R, self.theta, self.gamma)


def _check_gamma(gamma):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (3, 2):
        raise ValueError(f"gamma must be 3x2, got {gamma.shape}")
    if np.max(np.abs(gamma.sum(axis=0))) > 1e-12:
        raise ValueError("gamma columns must sum to zero")
    if np.max(np.abs(gamma.T @ gamma - np.eye(2))) > 1e-12:
        raise ValueError("gamma columns must be orthonormal")
    return gamma


def metric_eigendecomposition(g3, gamma=None):
    """Split a symmetric positive-definite 3-metric into (phi_tilde, R, theta).

    Eigenvalues of g3 are lam_a^2 (lam_a > 0, sorted descending); the
    eigenvector frame is returned both as a proper rotation V and as its
    Z-Y-Z Euler angles theta.  Raises AdmissibilityError if g3 is not
    positive definite.
    """
    if gamma is None:
        gamma = GAMMA_DEFAULT
    gamma = _check_gamma(gamma)
    g3 = np.asarray(g3, dtype=float)
    if g3.shape != (3, 3) or np.max(np.abs(g3 - g3.T)) > 1e-10 * max(1.0, np.max(np.abs(g3))):
        raise ValueError("g3 must be a symmetric 3x3 matrix")
    g3 = 0.5 * (g3 + g3.T)
    w, v = np.linalg.eigh(g3)
    if w[0] <= 0.0:
        raise AdmissibilityError(
            f"3-metric is not positive definite (eigenvalues {w}); the "
            "surface fails the spacelike admissibility condition"
        )
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # deterministic eigenvector signs: dominant entry of each column positive
    for a in range(3):
        k = int(np.argmax(np.abs(v[:, a])))
        if v[k, a] < 0.0:
            v[:, a] = -v[:, a]
    if np.linalg.det(v) < 0.0:
        v[:, 2] = -v[:, 2]

    lam = np.sqrt(w)
    phi_tilde = float(np.prod(lam))
    u = np.log(lam) - np.log(phi_tilde) / 3.0
    r_shape = gamma.T @ u
    theta = euler_zyz_from_rotation(v)
    return MetricEigenData(
        phi_tilde=phi_tilde,
        R=r_shape,
        theta=theta,
        lam=lam,
        V=v,
        gamma=np.array(gamma),
    )


def metric_from_eigendata(phi_tilde, r_shape, theta, gamma=None):
    """Inverse of metric_eigendecomposition."""
    if gamma is None:
        gamma = GAMMA_DEFAULT
    gamma = _check_gamma(gamma)
    if not phi_tilde > 0:
        raise ValueError("phi_tilde must be positive")
    r_shape = np.asarray(r_shape, dtype=float)
    lam = phi_tilde ** (1.0 / 3.0) * np.exp(gamma @ r_shape)
    v = rotation_from_euler_zyz(theta)
    return (v * lam**2) @ v.T


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_from_euler_zyz(theta):
    """Proper rotation Rz(theta1) @ Ry(theta2) @ Rz(theta3)."""
    t1, t2, t3 = np.asarray(theta, dtype=float)
    return _rz(t1) @ _ry(t2) @ _rz(t3)


def euler_zyz_from_rotation(v, tol=1e-12):
    """Z-Y-Z Euler angles of a proper rotation; third angle 0 at gimbal lock."""
    c2 = float(np.clip(v[2, 2], -1.0, 1.0))
    t2 = np.arccos(c2)
    if np.sin(t2) > tol:
        t1 = np.arctan2(v[1, 2], v[0, 2])
        t3 = np.arctan2(v[2, 1], -v[2, 0])
    elif c2 > 0.0:   # Ry(0): only t1 + t3 matters
        t2 = 0.0
        t1 = np.arctan2(v[1, 0], v[0, 0])
        t3 = 0.0
    else:            # Ry(pi): only t1 - t3 matters
        t2 = np.pi
        t1 = np.arctan2(-v[1, 0], -v[0, 0])
        t3 = 0.0
    return np.array([t1, t2, t3])


@dataclass
class Violation:
    """One admissibility failure: which condition, where, and the witness value."""

    condition: int
    tau: float
    sigma: np.ndarray
    witness: float


@dataclass
class AdmissibilityReport:
    passed: bool
    conditions_passed: tuple
    violations: list
    n_nodes: int
    asymptotic_normal: np.ndarray | None
    grid: GridSpec


def check_admissibility(emb, grid, sgn=1, asym_tol=1e-3):
    """Sweep a grid and test the three admissibility conditions.

    Evaluation failures at a node (degenerate tangents and the like) are
    recorded as violations of the condition being evaluated rather than
    raised, so one bad node cannot mask others.  Condition 3 compares unit
    normals on the outermost sigma shell, across all tau samples, against
    their common mean direction with tolerance ``asym_tol`` per component.
    """
    taus = grid.tau_values()
    axis = grid.sigma_axis()
    violations = []
    shell_normals = []
    ok = [True, True, True]
    n_nodes = 0
    ext = grid.sigma_extent

    for tau, s1, s2, s3 in itertools.product(taus, axis, axis, axis):
        sigma = np.array([s1, s2, s3])
        n_nodes += 1
        on_shell = np.max(np.abs(sigma)) >= ext * (1.0 - 1e-12)
        jac = emb.jacobian(tau, sigma)
        g4 = _induced_metric(jac, sgn)

        # condition 2: spacelike surfaces
        gtt = sgn * g4[0, 0]
        eigs = np.linalg.eigvalsh(-sgn * g4[1:, 1:])
        if not (gtt > 0.0 and eigs[0] > 0.0):
            ok[1] = False
            violations.append(Violation(2, float(tau), sigma, float(min(gtt, eigs[0]))))

        # condition 1: positive lapse (needs the normal)
        try:
            geo = _geometry(emb, tau, sigma, jac, g4, sgn)
        except DegenerateSurfaceError:
            ok[0] = False
            violations.append(Violation(1, float(tau), sigma, float("nan")))
            continue
        if not geo.lapse > 0.0:
            ok[0] = False
            violations.append(Violation(1, float(tau), sigma, geo.lapse))
        if on_shell:
            shell_normals.append(geo.normal)

    asym = None
    if shell_normals:
        normals = np.array(shell_normals)
        mean = normals.mean(axis=0)
        q = mean[0] ** 2 - mean[1:] @ mean[1:]
        if q <= 0.0:
            ok[2] = False
            violations.append(Violation(3, float(taus[0]), np.full(3, np.nan), q))
        else:
            asym = mean / np.sqrt(q)
            dev = np.max(np.abs(normals - asym), axis=1)
            bad = dev > asym_tol
            if np.any(bad):
                ok[2] = False
                worst = int(np.argmax(dev))
                violations.append(
                    Violation(3, float("nan"), np.full(3, np.nan), float(dev[worst]))
                )
    else:
        ok[2] = False

    return AdmissibilityReport(
        passed=all(ok),
        conditions_passed=tuple(ok),
        violations=violations,
        n_nodes=n_nodes,
        asymptotic_normal=asym,
        grid=grid,
    )


def identity_embedding():
    """The inertial foliation z = (tau, sigma)."""

    def z(tau, sigma):
        return np.concatenate(([tau], sigma))

    def jac(tau, sigma):
        return np.eye(4)

    return Embedding(z, jacobian=jac, name="identity")


def tilted_embedding(v):
    """Foliation by the simultaneity planes of an observer moving at velocity v.

    v is a 3-velocity in units of c (a scalar means motion along x).  This is
    the boost image of the identity embedding, so the induced metric is again
    flat Minkowski (unit lapse, zero shift) with constant normal gamma*(1, v).
    """
    vel = np.atleast_1d(np.asarray(v, dtype=float))
    if vel.shape == (1,):
        vel = np.array([vel[0], 0.0, 0.0])
    if vel.shape != (3,):
        raise ValueError("velocity must be a scalar or a 3-vector")
    beta2 = vel @ vel
    if not beta2 < 1.0:
        raise ValueError("tilted embedding needs |v| < 1")
    gam = 1.0 / np.sqrt(1.0 - beta2)
    lam = boost_from_h(gam * vel)

    def z(tau, sigma):
        return lam @ np.concatenate(([tau], sigma))

    def jac(tau, sigma):
        return lam.copy()

    return Embedding(z, jacobian=jac, name="tilted")


_JZ = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def make_rotating_embedding(kind, omega, r0=None, c=1.0):
    """Rotating simultaneity conventions about the z axis.

    kind "rigid": every sigma rotates with the same angular velocity omega,
    so the convention breaks down (surfaces stop being orthogonal to any
    observer, sgn*g_tautau = 1 - (omega*rho/c)^2 <= 0) at cylinder radius
    rho >= c/omega.

    kind "differential": the rotation angle falls off with radius through
    F(rho) = 1 / (1 + rho^2/r0^2), so the effective linear speed
    omega*rho*F(rho) peaks at omega*r0/2; for omega*r0 < 2c the convention
    is admissible at all radii.

    tau and sigma are lengths (tau = c t), so the phase is (omega/c) tau F.
    """
    if kind not in ("rigid", "differential"):
        raise ValueError(f"kind must be 'rigid' or 'differential', got {kind!r}")
    if kind == "differential":
        if r0 is None or not r0 > 0:
            raise ValueError("differential rotation needs a falloff radius r0 > 0")
        r0 = float(r0)
    omega = float(omega)
    c = float(c)
    if not c > 0:
        raise ValueError("c must be positive")
    k = omega / c

    def profile(rho2):
        if kind == "rigid":
            return 1.0
        return 1.0 / (1.0 + rho2 / r0**2)

    def z(tau, sigma):
        rho2 = sigma[0] ** 2 + sigma[1] ** 2
        phase = k * tau * profile(rho2)
        cp, sp = np.cos(phase), np.sin(phase)
        rot = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
        return np.concatenate(([tau], rot @ sigma))

    def jac(tau, sigma):
        rho2 = sigma[0] ** 2 + sigma[1] ** 2
        f = profile(rho2)
        phase = k * tau * f
        cp, sp = np.cos(phase), np.sin(phase)
        rot = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
        rs = rot @ sigma
        jrs = _JZ @ rs                      # d(rot sigma)/d phase
        out = np.zeros((4, 4))
        out[0, 0] = 1.0
        out[1:, 0] = k * f * jrs
        # d phase / d sigma^r: zero for rigid; radial falloff for differential
        if kind == "rigid":
            dphase = np.zeros(3)
        else:
            df = -2.0 / r0**2 * f * f       # dF/d(rho^2) * 2 ... folded below
            dphase = k * tau * df * np.array([sigma[0], sigma[1], 0.0])
        out[1:, 1:] = rot + np.outer(jrs, dphase)
        return out

    label = f"{kind}-rotation(omega={omega}" + (f", r0={r0})" if kind == "differential" else ")")
    return Embedding(z, jacobian=jac, name=label)
