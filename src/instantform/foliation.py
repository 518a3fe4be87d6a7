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

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DegenerateSurfaceError
from .minkowski import _check_sgn, boost_from_h, metric

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


#: Grid nodes per batched block of check_admissibility; bounds its peak memory.
_BLOCK = 4096


class Embedding:
    """An embedding z(tau, sigma) with optional closed-form Jacobian.

    Array-first: tau is a scalar or an array of shape S with sigma shaped
    S + (3,); the callables get float arrays of those shapes (a scalar tau as
    a numpy float) and must broadcast over the leading axes.

    Parameters
    ----------
    z : callable
        (tau, sigma) -> array of shape S + (4,).
    jacobian : callable, optional
        (tau, sigma) -> S + (4, 4) array with [..., :, A] equal to dz/dsigma^A,
        A ordered (tau, 1, 2, 3); one (4, 4) array is broadcast over a batch.
        When omitted, central finite differences of z with step ``fd_step``
        times the local coordinate scale are used.
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

    def _points(self, tau, sigma):
        tau, sigma = np.asarray(tau, dtype=float), np.asarray(sigma, dtype=float)
        if sigma.shape != tau.shape + (3,):
            raise ValueError(f"{self.name}: sigma shape {sigma.shape} does not fit tau {tau.shape}")
        return tau, sigma

    def __call__(self, tau, sigma):
        tau, sigma = self._points(tau, sigma)
        out = np.asarray(self._z(tau[()], sigma), dtype=float)
        if out.shape != tau.shape + (4,):
            raise ValueError(f"{self.name}: z must return shape {tau.shape + (4,)}, "
                             f"got {out.shape}")
        return out

    def jacobian(self, tau, sigma):
        """J[..., :, A] = dz/dsigma^A, A in (tau, 1, 2, 3), shaped S + (4, 4)."""
        tau, sigma = self._points(tau, sigma)
        shape = tau.shape + (4, 4)
        if self._jacobian is not None:
            jac = np.asarray(self._jacobian(tau[()], sigma), dtype=float)
            if jac.shape == (4, 4) and shape != (4, 4):
                jac = np.broadcast_to(jac, shape)
            if jac.shape != shape:
                raise ValueError(f"{self.name}: jacobian must have shape {shape}, got {jac.shape}")
            return jac
        x = np.concatenate((tau[..., None], sigma), axis=-1)
        h = self.fd_step * np.max(np.abs(x), axis=-1, initial=1.0)
        jac = np.empty(shape)
        for a in range(4):
            dx = np.zeros(x.shape)
            dx[..., a] = h
            zp, zm = (self(p[..., 0], p[..., 1:]) for p in (x + dx, x - dx))
            jac[..., a] = (zp - zm) / (2.0 * h)[..., None]
        return jac


@dataclass
class GridSpec:
    """Cartesian evaluation grid: tau samples times a centered sigma box."""

    tau_min: float
    tau_max: float
    n_tau: int
    sigma_extent: float
    n_sigma: int

    def __post_init__(self):
        for name, least in (("n_tau", 1), ("n_sigma", 2)):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
        if not -np.inf < self.tau_min <= self.tau_max < np.inf:
            raise ValueError(f"tau_min <= tau_max must both be finite, got {self.tau_min!r} "
                             f"and {self.tau_max!r}")
        if not 0.0 < self.sigma_extent < np.inf:
            raise ValueError(f"sigma_extent must be finite and positive, got {self.sigma_extent!r}")

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


_ETA = metric()
#: eta's diagonal: multiplying by it raises or lowers an index
_ETA_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


def _cofactors(jac):
    """Covariant normals n_mu = eps_{mu nu rho si} z1^nu z2^rho z3^si of Jacobians (..., 4, 4).

    n_mu is the signed 3x3 minor of the tangents without row mu, each minor
    expanded along one row into the 2x2 minors of tangent rows (0, 1) or (2, 3).
    """
    lead = jac.ndim - 2
    t = jac[..., 1:].transpose(lead, lead + 1, *range(lead))  # t[mu, r] = dz^mu / dsigma^r
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = t
    # 2x2 minors of rows (0, 1) and (2, 3) on tangent columns (1, 2), (0, 2), (0, 1)
    ab12, ab02, ab01 = a1 * b2 - a2 * b1, a0 * b2 - a2 * b0, a0 * b1 - a1 * b0
    cd12, cd02, cd01 = c1 * d2 - c2 * d1, c0 * d2 - c2 * d0, c0 * d1 - c1 * d0
    n_cov = np.empty(jac.shape[:-1])
    n_cov[..., 0] = b0 * cd12 - b1 * cd02 + b2 * cd01
    n_cov[..., 1] = -(a0 * cd12 - a1 * cd02 + a2 * cd01)
    n_cov[..., 2] = d0 * ab12 - d1 * ab02 + d2 * ab01
    n_cov[..., 3] = -(c0 * ab12 - c1 * ab02 + c2 * ab01)
    return n_cov


def _frames(jac):
    """Induced metric, future unit normal and lapse of Jacobians (..., 4, 4).

    Returns (g4, normal, lapse, flat, tipped), g4 mostly-minus.  The normal
    comes from the cofactors of the tangents; ``flat`` marks dependent
    tangents and ``tipped`` a normal that is not timelike, and normal and
    lapse are NaN at either.  Past the metric every step is elementwise over
    the leading axes or a reduction over a trailing one, so a point's result
    does not depend on the batch it is evaluated in.
    """
    g4 = np.swapaxes(jac, -1, -2) @ _ETA @ jac
    g4 = 0.5 * (g4 + np.swapaxes(g4, -1, -2))

    n_cov = _cofactors(jac)
    norms = np.sqrt(np.add.reduce(jac[..., 1:] ** 2, -2))
    scale = norms[..., 0] * norms[..., 1] * norms[..., 2]
    flat = np.sqrt(np.add.reduce(n_cov * n_cov, -1)) <= 1e-12 * np.maximum(scale, 1e-300)
    n_up = n_cov * _ETA_DIAG  # eta^-1 = eta
    q = n_up[..., 0] ** 2 - np.add.reduce(n_up[..., 1:] ** 2, -1)
    tipped = ~flat & (q <= 0.0)
    bad = flat | tipped
    ell = n_up / np.sqrt(np.where(bad, 1.0, q))[..., None]
    ell = np.where(ell[..., :1] < 0.0, -ell, ell)
    ell[bad] = np.nan
    lapse = np.add.reduce(jac[..., 0] * _ETA_DIAG * ell, -1)
    return g4, ell, lapse, flat, tipped


def _refuse_degenerate(emb, tau, sigma, flat, tipped):
    if flat:
        raise DegenerateSurfaceError(f"{emb.name}: tangent vectors at tau={tau}, sigma={sigma} "
                                     "are numerically linearly dependent")
    if tipped:
        raise DegenerateSurfaceError(f"{emb.name}: surface normal at tau={tau}, sigma={sigma} "
                                     "is not timelike; the 3-surface is not spacelike there")


def induced_geometry(emb, tau, sigma, sgn=1):
    """Evaluate metric, normal, lapse and shift of ``emb`` at (tau, sigma).

    Only g4 depends on the sign convention ``sgn``.  Raises
    DegenerateSurfaceError when the three surface tangents fail to span a
    spacelike 3-plane (vanishing or non-timelike normal).
    """
    _check_sgn(sgn)
    sigma = np.asarray(sigma, dtype=float)
    g4, ell, lapse, flat, tipped = _frames(emb.jacobian(tau, sigma))
    _refuse_degenerate(emb, tau, sigma, flat, tipped)
    g3 = -g4[1:, 1:]
    shift_cov = -g4[0, 1:]
    return GeometryAtPoint(
        tau=float(tau),
        sigma=sigma.copy(),
        sgn=sgn,
        g4=sgn * g4,
        g3=g3,
        normal=ell,
        lapse=float(lapse),
        shift_cov=shift_cov,
        shift_con=np.linalg.solve(g3, shift_cov),
    )


def extrinsic_curvature(emb, tau, sigma):
    """Extrinsic curvature K_rs of the tau = const surface through the point.

    Uses the lapse/shift form

        K_rs = (N_{r|s} + N_{s|r} - d_tau g3_rs) / (2 N)

    with the shift covariant derivatives taken with respect to g3.  The
    spatial and tau derivatives of g3 and N_r are central finite differences
    of the induced geometry (step ``emb.fd_step`` times the coordinate scale)
    at the nine stencil points, in one batched call.  Raises
    AdmissibilityError when the lapse is not positive at the evaluation point.
    """
    sigma = np.asarray(sigma, dtype=float)
    h = emb.fd_step * max(1.0, abs(tau), float(np.max(np.abs(sigma))))
    # stencil rows: the center, then +h and -h along sigma^1, sigma^2, sigma^3, tau
    steps = h * np.vstack((np.zeros(4), np.kron(np.eye(4)[[1, 2, 3, 0]], [[1.0], [-1.0]])))
    pts = np.concatenate(([tau], sigma)) + steps
    taus, sigmas = pts[:, 0], pts[:, 1:]
    g4, _, lapse, flat, tipped = _frames(emb.jacobian(taus, sigmas))
    _refuse_degenerate(emb, tau, sigma, flat[0], tipped[0])
    if not lapse[0] > 0.0:
        raise AdmissibilityError(
            f"{emb.name}: lapse {lapse[0]:.3e} at tau={tau}, sigma={sigma} "
            "is not positive; extrinsic curvature undefined"
        )
    for k in range(1, 9):
        _refuse_degenerate(emb, taus[k], sigmas[k], flat[k], tipped[k])

    g3 = -g4[:, 1:, 1:]
    shift_cov = -g4[:, 0, 1:]
    dg3 = (g3[1:7:2] - g3[2:7:2]) / (2.0 * h)              # dg3[t] = d g3 / d sigma^t
    dshift = (shift_cov[1:7:2] - shift_cov[2:7:2]) / (2.0 * h)  # dshift[s, r] = d N_r / d sigma^s
    dtau_g3 = (g3[7] - g3[8]) / (2.0 * h)

    # Christoffel symbols of g3, first kind:
    # gamma_{t,rs} = (d_r g3_ts + d_s g3_tr - d_t g3_rs) / 2
    gamma1 = 0.5 * (dg3.transpose(1, 0, 2) + dg3.transpose(1, 2, 0) - dg3)
    # N_{r|s} = d_s N_r - gamma^t_{rs} N_t = d_s N_r - g3^{tu} gamma1[u,r,s] N_t
    nt = np.linalg.inv(g3[0]) @ shift_cov[0]          # N^u
    cov = dshift.T - np.tensordot(nt, gamma1, axes=1)
    return (cov + cov.T - dtau_g3) / (2.0 * lapse[0])


@dataclass
class MetricEigenData:
    """Volume / shape / orientation split of a 3-metric.

    Satisfies g3 = V diag(lam^2) V^T with lam sorted descending, V a proper
    rotation, phi_tilde = prod(lam) = sqrt(det g3), and
    lam_a = phi_tilde^(1/3) exp(sum_b gamma[a,b] R[b]), gamma = GAMMA_DEFAULT.
    """

    phi_tilde: float
    R: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    V: np.ndarray

    def reconstruct(self):
        return metric_from_eigendata(self.phi_tilde, self.R, self.theta)


def metric_eigendecomposition(g3):
    """Split a symmetric positive-definite 3-metric into (phi_tilde, R, theta).

    Eigenvalues of g3 are lam_a^2 (lam_a > 0, sorted descending), R is in
    the fixed shape basis gamma = GAMMA_DEFAULT, and the eigenvector frame
    is returned both as a proper rotation V and as its Z-Y-Z Euler angles
    theta.  Raises AdmissibilityError if g3 is not positive definite.
    """
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
    r_shape = GAMMA_DEFAULT.T @ u
    theta = euler_zyz_from_rotation(v)
    return MetricEigenData(
        phi_tilde=phi_tilde,
        R=r_shape,
        theta=theta,
        lam=lam,
        V=v,
    )


def metric_from_eigendata(phi_tilde, r_shape, theta):
    """Inverse of metric_eigendecomposition."""
    if not phi_tilde > 0:
        raise ValueError("phi_tilde must be positive")
    r_shape = np.asarray(r_shape, dtype=float)
    lam = phi_tilde ** (1.0 / 3.0) * np.exp(GAMMA_DEFAULT @ r_shape)
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
    """Z-Y-Z Euler angles of a proper rotation; third angle 0 at gimbal lock.

    theta_2 comes from atan2(sin, cos) rather than arccos(v[2, 2]): cos rounds
    to 1 below about 1e-8, which would send small middle angles to the gimbal
    branch.  theta_3 comes from the middle row (sin theta_3, cos theta_3, 0) of
    Rz(-theta_1) v = Ry(theta_2) Rz(theta_3), whose entries are of order 1, so
    theta_1 + theta_3 stays accurate however small sin(theta_2) is.
    """
    c2 = float(v[2, 2])
    t2 = np.arctan2(np.hypot(v[0, 2], v[1, 2]), c2)
    if np.sin(t2) > tol:
        t1 = np.arctan2(v[1, 2], v[0, 2])
        c1, s1 = np.cos(t1), np.sin(t1)
        t3 = np.arctan2(c1 * v[1, 0] - s1 * v[0, 0], c1 * v[1, 1] - s1 * v[0, 1])
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


def check_admissibility(emb, grid, asym_tol=1e-3):
    """Sweep a grid and test the three admissibility conditions.

    Nodes are visited in ``itertools.product(taus, axis, axis, axis)`` order,
    in fixed-size blocks that each make one batched Jacobian call.  At each
    node a condition-2 violation is listed before a condition-1 one.  Nodes
    whose tangents are degenerate or span a non-spacelike 3-plane count as
    condition-1 violations with a NaN witness rather than raising, and nodes
    with a non-finite Jacobian violate conditions 2 and 1 with NaN witnesses
    and add no shell normal, so one bad node cannot mask others.  Condition 3
    compares unit normals on the outermost sigma shell, across all tau
    samples, against their common mean direction with tolerance ``asym_tol``
    per component.
    """
    if not 0.0 <= asym_tol < np.inf:
        raise ValueError(f"asym_tol must be finite and >= 0, got {asym_tol!r}")
    taus, axis = grid.tau_values(), grid.sigma_axis()
    dims = (taus.size,) + 3 * (axis.size,)
    n_nodes = int(np.prod(dims))
    violations, shell_normals, ok = [], [], [True, True, True]

    for start in range(0, n_nodes, _BLOCK):
        t, i, j, k = np.unravel_index(np.arange(start, min(start + _BLOCK, n_nodes)), dims)
        tau = taus[t]
        sigma = np.stack((axis[i], axis[j], axis[k]), axis=-1)
        g4, ell, lapse, flat, tipped = _frames(emb.jacobian(tau, sigma))

        # condition 2: spacelike surfaces; witness min(g_tautau, smallest eigenvalue).
        # Where Gershgorin's discs clear zero g3 is positive definite, so the
        # witness of a violation there is g_tautau and eigvalsh is not needed.
        gtt = g4[:, 0, 0]
        g3 = -g4[:, 1:, 1:]
        finite = np.isfinite(g4).all(axis=(-2, -1))
        a01, a02, a12 = np.abs(g3[:, 0, 1]), np.abs(g3[:, 0, 2]), np.abs(g3[:, 1, 2])
        d0, d1, d2 = g3[:, 0, 0], g3[:, 1, 1], g3[:, 2, 2]
        disc = np.minimum(np.minimum(d0 - a01 - a02, d1 - a01 - a12), d2 - a02 - a12)
        clear = disc > 1e-12 * np.maximum(np.maximum(np.abs(d0), np.abs(d1)), np.abs(d2))
        eig0 = np.where(clear, np.inf, np.nan)  # +inf: proven positive; NaN: non-finite
        need = finite & ~clear
        if need.any():
            eig0[need] = np.linalg.eigvalsh(g3[need])[:, 0]
        bad2 = ~((gtt > 0.0) & (eig0 > 0.0))
        witness2 = np.where(finite, np.where(eig0 < gtt, eig0, gtt), np.nan)
        # condition 1: positive lapse (NaN where the normal is undefined)
        bad1 = ~(lapse > 0.0)
        ok[0] &= not bad1.any()
        ok[1] &= not bad2.any()
        hit = np.flatnonzero(bad2 | bad1)
        for t_n, s_n, b2, w2, b1, w1 in zip(tau[hit].tolist(), sigma[hit], bad2[hit].tolist(),
                                            witness2[hit].tolist(), bad1[hit].tolist(),
                                            lapse[hit].tolist()):
            if b2:
                violations.append(Violation(2, t_n, s_n, w2))
            if b1:
                violations.append(Violation(1, t_n, s_n, w1))

        on_shell = np.max(np.abs(sigma), axis=-1) >= grid.sigma_extent * (1.0 - 1e-12)
        shell_normals.append(ell[on_shell & finite & ~(flat | tipped)])

    asym = None
    normals = np.concatenate(shell_normals)
    if normals.size:
        mean = normals.mean(axis=0)
        q = mean[0] ** 2 - mean[1:] @ mean[1:]
        if q <= 0.0:
            ok[2] = False
            violations.append(Violation(3, float(taus[0]), np.full(3, np.nan), q))
        else:
            asym = mean / np.sqrt(q)
            dev = np.max(np.abs(normals - asym), axis=1)
            if np.any(dev > asym_tol):
                ok[2] = False
                violations.append(Violation(3, float("nan"), np.full(3, np.nan), float(dev.max())))
    else:
        ok[2] = False

    return AdmissibilityReport(passed=all(ok), conditions_passed=tuple(ok), violations=violations,
                               n_nodes=n_nodes, asymptotic_normal=asym, grid=grid)


def identity_embedding():
    """The inertial foliation z = (tau, sigma)."""

    def z(tau, sigma):
        return np.concatenate((np.asarray(tau)[..., None], sigma), axis=-1)

    return Embedding(z, jacobian=lambda tau, sigma: np.eye(4), name="identity")


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
        x = np.concatenate((np.asarray(tau)[..., None], sigma), axis=-1)
        return (lam @ x[..., None])[..., 0]

    return Embedding(z, jacobian=lambda tau, sigma: lam.copy(), name="tilted")


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

    def rotation(tau, sigma):
        """(F, R(phase)) at each point, R the rotation about the z axis."""
        f = profile(sigma[..., 0] ** 2 + sigma[..., 1] ** 2)
        phase = k * tau * f
        cp, sp = np.cos(phase), np.sin(phase)
        rot = np.zeros(sigma.shape[:-1] + (3, 3))
        rot[..., 0, 0] = rot[..., 1, 1] = cp
        rot[..., 0, 1], rot[..., 1, 0] = -sp, sp
        rot[..., 2, 2] = 1.0
        return f, rot

    def z(tau, sigma):
        rs = (rotation(tau, sigma)[1] @ sigma[..., None])[..., 0]
        return np.concatenate((np.asarray(tau)[..., None], rs), axis=-1)

    def jac(tau, sigma):
        f, rot = rotation(tau, sigma)
        jrs = (_JZ @ (rot @ sigma[..., None]))[..., 0]   # d(rot sigma)/d phase
        out = np.zeros(sigma.shape[:-1] + (4, 4))
        out[..., 0, 0] = 1.0
        out[..., 1:, 0] = np.asarray(k * f)[..., None] * jrs
        out[..., 1:, 1:] = rot
        if kind == "differential":
            # d phase / d sigma^r = k tau F'(rho^2) 2 sigma^r, F' = -F^2 / r0^2
            df = -2.0 / r0**2 * f * f
            dphase = (k * tau * df)[..., None] * sigma * np.array([1.0, 1.0, 0.0])
            out[..., 1:, 1:] += jrs[..., :, None] * dphase[..., None, :]
        return out

    label = f"{kind}-rotation(omega={omega}" + (f", r0={r0})" if kind == "differential" else ")")
    return Embedding(z, jacobian=jac, name=label)
