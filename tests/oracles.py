"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different route than
the library code under test: different discretizations, different linear
algebra, or closed forms.  Keeping them in one place makes it easy to see
that no oracle shares code with what it checks.
"""

import csv
import io
import itertools
import math

import numpy as np
from scipy.fft import irfftn, rfftn
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.optimize import brentq

from instantform import collective
from instantform.errors import CollisionError, NonConvergenceError, NoSolutionError
from instantform.foliation import AdmissibilityReport
from instantform.minkowski import boost_from_h, interval, metric
from instantform.potentials import POTENTIALS, _dot3, _sep
from instantform.radar import _RTOL, _SCAN_POINTS, _XTOL, RadarResult, _brent
from instantform.relquant import (
    _MAXITER,
    _energy_scale,
    _lowest_eigenpairs,
    _radial_terms,
    _start_block,
    kinetic_dispersion,
)
from instantform.restframe import (
    _BOUND_ATOL,
    _BOUND_RTOL,
    ReconstructedWorldlines,
    RelativeState,
    Trajectory,
    _energies,
    _mass_and_weights,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def stencil_extrinsic_curvature(emb, tau, sigma, step=1e-4):
    """Shape tensor via Gram-Schmidt normal + plain difference stencils.

    The library computes K from lapse, shift and metric derivatives; this
    oracle instead projects second position differences onto a unit normal
    built by Gram-Schmidt against the three tangents.  No cofactors, no
    Christoffel symbols, no shared code path.
    """
    sigma = np.asarray(sigma, dtype=float)

    tangents = []
    for r in range(3):
        e = np.zeros(3)
        e[r] = step
        tangents.append((emb(tau, sigma + e) - emb(tau, sigma - e)) / (2 * step))

    basis = []
    for v in tangents:
        v = v.copy()
        for b in basis:
            v -= (v @ ETA @ b) / (b @ ETA @ b) * b
        basis.append(v)
    normal = np.array([1.0, 0.0, 0.0, 0.0])
    for b in basis:
        normal -= (normal @ ETA @ b) / (b @ ETA @ b) * b
    normal /= np.sqrt(normal @ ETA @ normal)
    if normal[0] < 0:
        normal = -normal

    k = np.zeros((3, 3))
    for r in range(3):
        er = np.zeros(3)
        er[r] = step
        for s in range(r, 3):
            es = np.zeros(3)
            es[s] = step
            if r == s:
                dd = (emb(tau, sigma + er) - 2 * emb(tau, sigma)
                      + emb(tau, sigma - er)) / step**2
            else:
                dd = (emb(tau, sigma + er + es) - emb(tau, sigma + er - es)
                      - emb(tau, sigma - er + es) + emb(tau, sigma - er - es)
                      ) / (4 * step**2)
            k[r, s] = k[s, r] = -(normal @ ETA @ dd)
    return k


def _cofactor_normal(jac):
    """n_mu = eps_{mu nu rho si} z1^nu z2^rho z3^si, one 3x3 minor at a time."""
    m = jac[:, 1:]
    rows = (((1, 2, 3), 1.0), ((0, 2, 3), -1.0), ((0, 1, 3), 1.0), ((0, 1, 2), -1.0))
    # det flags a divide by zero on some singular minors; their determinant is still returned
    with np.errstate(divide="ignore"):
        return np.array([sign * np.linalg.det(m[list(idx), :]) for idx, sign in rows])


def _pointwise_normal_and_lapse(jac, sgn):
    """(future unit normal, lapse) at one node, or None where the tangents are
    numerically dependent or span a 3-plane that is not spacelike."""
    eta = sgn * ETA
    n_cov = _cofactor_normal(jac)
    scale = float(np.prod(np.linalg.norm(jac[:, 1:], axis=0)))
    if np.linalg.norm(n_cov) <= 1e-12 * max(scale, 1e-300):
        return None
    n_up = sgn * (eta @ n_cov)
    q = n_up[0] ** 2 - n_up[1:] @ n_up[1:]
    if q <= 0.0:
        return None
    ell = n_up / np.sqrt(q)
    if ell[0] < 0.0:
        ell = -ell
    return ell, float(sgn * (jac[:, 0] @ eta @ ell))


def pointwise_admissibility(emb, grid, sgn=1, asym_tol=1e-3):
    """The admissibility sweep one grid node at a time.

    Visits the nodes in ``itertools.product`` order, evaluates the Jacobian
    of each node on its own and applies the three conditions with 2-D linear
    algebra: condition 2 (g_tautau and the smallest 3-metric eigenvalue)
    before condition 1 (lapse; NaN witness where the normal is degenerate or
    not timelike), then condition 3 on the outermost sigma shell.  Returns
    the library's report type, its table built from one (condition, tau, s1,
    s2, s3, witness) row per violation, so the two can be compared field by
    field.
    """
    eta = sgn * ETA
    taus = grid.tau_values()
    axis = grid.sigma_axis()
    violations = []
    shell_normals = []
    ok = [True, True, True]
    n_nodes = 0
    for tau, s1, s2, s3 in itertools.product(taus, axis, axis, axis):
        sigma = np.array([s1, s2, s3])
        n_nodes += 1
        jac = emb.jacobian(tau, sigma)
        g4 = jac.T @ eta @ jac
        g4 = 0.5 * (g4 + g4.T)
        gtt = sgn * g4[0, 0]
        eigs = np.linalg.eigvalsh(-sgn * g4[1:, 1:])
        if not (gtt > 0.0 and eigs[0] > 0.0):
            ok[1] = False
            violations.append((2, tau, *sigma, min(gtt, eigs[0])))
        frame = _pointwise_normal_and_lapse(jac, sgn)
        if frame is None:
            ok[0] = False
            violations.append((1, tau, *sigma, np.nan))
            continue
        ell, lapse = frame
        if not lapse > 0.0:
            ok[0] = False
            violations.append((1, tau, *sigma, lapse))
        if np.max(np.abs(sigma)) >= grid.sigma_extent * (1.0 - 1e-12):
            shell_normals.append(ell)

    asym = None
    if shell_normals:
        normals = np.array(shell_normals)
        mean = normals.mean(axis=0)
        q = mean[0] ** 2 - mean[1:] @ mean[1:]
        if q <= 0.0:
            ok[2] = False
            violations.append((3, taus[0], np.nan, np.nan, np.nan, q))
        else:
            asym = mean / np.sqrt(q)
            dev = np.max(np.abs(normals - asym), axis=1)
            if np.any(dev > asym_tol):
                ok[2] = False
                violations.append((3, np.nan, np.nan, np.nan, np.nan, np.max(dev)))
    else:
        ok[2] = False
    return AdmissibilityReport(passed=all(ok), conditions_passed=tuple(ok),
                               table=np.array(violations, dtype=float).reshape(-1, 6),
                               n_nodes=n_nodes, asymptotic_normal=asym, grid=grid)


def inertial_sync_closed_form(origin, h, event):
    """Radar time of an event for a uniformly moving observer.

    Midpoint of emission/absorption proper times equals the projection of
    the event onto the observer's 4-velocity: tau = u . (event - origin).
    """
    u = np.concatenate(([np.sqrt(1.0 + h @ h)], h))
    d = np.asarray(event, dtype=float) - np.asarray(origin, dtype=float)
    return float(u @ ETA @ d)


def _legs(d):
    """Emission and absorption legs dt - r, dt + r of separations d = P - w(s)."""
    r = np.sqrt(d[..., 1] ** 2 + d[..., 2] ** 2 + d[..., 3] ** 2)
    return d[..., 0] - r, d[..., 0] + r


def numpy_einstein_sync(w, event):
    """radar.einstein_sync with Brent's objective on 0-d numpy stacks.

    The same scan, cell rule and Brent port as the library, but the scan is
    sampled afresh for each event as one (512, 4) separation stack, each Brent
    evaluation is ``interval``/``_legs`` of ``event - w.position(s)`` in numpy
    and the residuals are numpy reductions: the reference for the library's
    cached scan and Python-float objective, which must return the same bits.
    """
    event = np.asarray(event, dtype=float)
    s_grid = np.linspace(w.domain[0], w.domain[1], _SCAN_POINTS)
    d = event - np.asarray(w.position(s_grid), dtype=float)
    f, legs = interval(d), _legs(d)
    found = [leg[0] >= 0.0 >= leg[-1] for leg in legs]
    if not all(found):
        if not np.all(np.isfinite(event)):   # which fails a leg's test
            raise ValueError(f"event must be finite, got {event}")
        missing = "both" if not any(found) else ("emission" if found[1] else "absorption")
        raise NoSolutionError(f"{w.name}: no radar solution for event {event} "
                              f"(missing {missing} leg on s in {w.domain})",
                              interval=w.domain, missing=missing)

    roots = []
    for k, leg in enumerate(legs):
        i = max(int(np.argmax(leg <= 0.0)) - 1, 0)   # the cell where the leg changes sign
        if f[i] * f[i + 1] < 0.0:
            def g(s):
                return float(interval(event - w.position(s)))
        else:
            def g(s, k=k):
                return float(_legs(event - w.position(s))[k])
        roots.append(_brent(g, s_grid[i], s_grid[i + 1], _XTOL, _RTOL))
    emit, absorb = roots
    pe, pa = (np.asarray(w.position(s), dtype=float) for s in roots)
    residuals = tuple(abs(float(interval(d))) / max(1.0, float(np.max(np.abs(d)))) ** 2
                      for d in (event - pe, event - pa))
    return RadarResult(0.5 * (emit + absorb), emit, absorb, pe, pa, residuals)


def circular_orbit_momentum(m1, m2, q1q2, radius, c=1.0):
    """|pi| giving a circular relativistic Coulomb orbit of the given radius.

    Balances the rate of direction change of pi against the central force:
    k^2 (1/E1 + 1/E2) / r = alpha / (c r^2) with alpha = -q1q2/(4 pi) > 0.
    """
    alpha = -q1q2 / (4.0 * np.pi)
    if alpha <= 0:
        raise ValueError("needs an attractive pair (q1q2 < 0)")

    def residual(k):
        e1 = np.sqrt((m1 * c) ** 2 + k * k)
        e2 = np.sqrt((m2 * c) ** 2 + k * k)
        return k * k * (1.0 / e1 + 1.0 / e2) - alpha / (c * radius)

    return brentq(residual, 1e-12, 1e9, xtol=1e-15, rtol=8.882e-16)


def newtonian_relative_orbit(m1, m2, q1q2, rho0, p0, dt, n_steps):
    """Velocity-Verlet for the nonrelativistic limit of the two-body problem.

    mu rho'' = -dV/drho with V = q1q2/(4 pi r), integrated in physical time.
    Same order and same kick-drift-kick structure as the library integrator,
    so comparing against it at increasing c isolates the relativistic terms.
    """
    mu = m1 * m2 / (m1 + m2)
    rho = np.array(rho0, dtype=float)
    p = np.array(p0, dtype=float)
    out = np.empty((n_steps + 1, 3))
    out[0] = rho

    def force(r_vec):
        r = np.linalg.norm(r_vec)
        return q1q2 / (4.0 * np.pi * r**3) * r_vec

    for k in range(1, n_steps + 1):
        p += 0.5 * dt * force(rho)
        rho = rho + dt * p / mu
        p += 0.5 * dt * force(rho)
        out[k] = rho
    return out


def orthogonal_boost_wigner_tangent(xi1, xi2):
    """tan of the Wigner angle for two orthogonal boosts of given rapidities."""
    return np.sinh(xi1) * np.sinh(xi2) / (np.cosh(xi1) + np.cosh(xi2))


def levi_civita4():
    """Totally antisymmetric 4-index symbol with eps[0,1,2,3] = +1."""
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        # parity by counting inversions
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
        eps[perm] = -1.0 if inv % 2 else 1.0
    return eps


def pauli_lubanski_spin(g, sgn=1):
    """Rest spin from the Pauli-Lubanski vector.

    W^mu = eps^{mu nu rho si}/2 J_{nu rho} P_si, boosted to the rest frame
    and divided by Mc, with the index raised in the sign convention ``sgn``.
    The library instead reads S_bar off the rotation part of J transformed
    to the rest frame.
    """
    p4 = g.P
    mc = float(np.sqrt(p4[0] ** 2 - p4[1:] @ p4[1:]))
    h = p4[1:] / mc
    w_down = 0.5 * np.einsum("mnrs,nr,s->m", levi_civita4(), g.J, p4)
    w_up = metric(sgn) @ w_down
    w_rest = boost_from_h(-h) @ w_up
    return sgn * w_rest[1:] / mc


def outer_boost_from_h(h):
    """One pure boost from a single (3,) h, built with ``h @ h`` and
    ``np.outer`` where minkowski.boost_from_h broadcasts over a stack."""
    gamma = np.sqrt(1.0 + h @ h)
    lam = np.empty((4, 4))
    lam[0, 0] = gamma
    lam[0, 1:] = h
    lam[1:, 0] = h
    lam[1:, 1:] = np.eye(3) + np.outer(h, h) / (1.0 + gamma)
    return lam


def framewise_moller_tube_sample(sys, n_frames, rapidity_max, seed=0):
    """collective.moller_tube_sample one frame at a time.

    The same random frames, but two (3,) boosts, one lam J lam^T and one
    norm per frame in a Python loop, where the library makes one stacked
    pass over all frames.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if rapidity_max < 0:
        raise ValueError("rapidity_max must be >= 0")
    g = collective.poincare_generators(sys)
    to_rest, x_rest = g._rest[3:]

    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_frames, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    xis = rng.uniform(0.0, rapidity_max, size=n_frames)

    distances = np.empty(n_frames)
    events_lab = np.empty((n_frames, 4))
    for k in range(n_frames):
        hf = np.sinh(xis[k]) * dirs[k]
        lam = boost_from_h(hf)
        xe_f = (lam @ g.J @ lam.T)[1:, 0] / (lam @ g.P)[0]   # center of energy, frame time 0
        events_lab[k] = boost_from_h(-hf) @ np.concatenate(([0.0], xe_f))
        distances[k] = np.linalg.norm((to_rest @ events_lab[k])[1:] - x_rest)
    return collective.TubeSample(
        distances=distances,
        rapidities=xis,
        directions=dirs,
        bound=collective.tube_radius(g),
        events_lab=events_lab,
    )


def nonrel_fd_levels(n_points, length, mu, alpha, c=1.0, n_levels=6):
    """Second-order finite differences for the bare Coulomb radial problem.

    -u''/(2 mu) - (alpha c / r) u on the interior grid r_j = j L/(n+1),
    assembled as a tridiagonal matrix with no sine transform and no
    softening involved.
    """
    dr = length / (n_points + 1)
    r = dr * np.arange(1, n_points + 1)
    diag = 1.0 / (mu * dr**2) - alpha * c / r
    off = np.full(n_points - 1, -0.5 / (mu * dr**2))
    return eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, n_levels - 1))[0]


def build_radial_hamiltonian(n_points, length, m1, m2, alpha, c=1.0,
                             kinetic="salpeter", ell=0, softening=None):
    """Dense matrix of the radial operator on the interior grid, for checks.

    Returns (H, r).  ``radial_levels`` never forms this matrix; it applies
    the same operator through sine transforms.  The kinetic part is
    T = (2/(n+1)) S diag(T(k_m)) S with S_mj = sin(m j pi/(n+1)), the exact
    representation of T(k^2) under Dirichlet walls at 0 and L.
    softening defaults to length/(4*n_points); for ell > 0 the centrifugal
    barrier ell(ell+1)/(2 mu (r^2 + eps^2)) joins the potential, softened
    the same way.  Raises FloatingPointError when the kinetic or potential
    term is not finite on the grid, as for a vanishingly small ``length``.
    """
    r, tk, v = _radial_terms(n_points, length, m1, m2, alpha, c, kinetic,
                             ell, softening)
    idx = np.arange(1, n_points + 1)
    s = np.sin(np.pi / (n_points + 1) * np.outer(idx, idx))
    h = (2.0 / (n_points + 1)) * (s @ (tk[:, None] * s))
    h[np.diag_indices_from(h)] += v
    return 0.5 * (h + h.T), r


def dense_radial_levels(n_points, length, m1, m2, alpha, c=1.0,
                        kinetic="salpeter", ell=0, softening=None, n_levels=6,
                        return_states=False):
    """Dense sine-basis matrix and ``eigh`` for the softened radial problem.

    Builds its own grid r_j = j L/(n+1) and dispersion, assembles
    T = (2/(n+1)) S diag(T(k_m)) S with S_mj = sin(m j pi/(n+1)) as an n x n
    matrix at O(n^3) cost, adds the softened Coulomb potential and the
    ell barrier on the diagonal, and diagonalizes.  No transform and no
    iterative solver are involved.  Returns the lowest values, and with
    ``return_states`` also their vectors as columns.
    """
    idx = np.arange(1, n_points + 1)
    r = idx * length / (n_points + 1)
    k = idx * np.pi / length
    mu = m1 * m2 / (m1 + m2)
    if kinetic == "salpeter":
        tk = (np.sqrt((m1 * c**2) ** 2 + (k * c) ** 2)
              + np.sqrt((m2 * c**2) ** 2 + (k * c) ** 2) - (m1 + m2) * c**2)
    else:
        tk = k**2 / (2.0 * mu)
    eps2 = (length / (4.0 * n_points) if softening is None else softening) ** 2
    v = -alpha * c / np.sqrt(r**2 + eps2) + ell * (ell + 1) / (2.0 * mu * (r**2 + eps2))
    s = np.sin(np.pi / (n_points + 1) * np.outer(idx, idx))
    h = (2.0 / (n_points + 1)) * (s @ (tk[:, None] * s))
    h[np.diag_indices_from(h)] += v
    vals, vecs = eigh(0.5 * (h + h.T), subset_by_index=(0, n_levels - 1))
    return (vals, vecs) if return_states else vals


def qr_ritz_steps(y, k, active):
    """P's coefficients in the small space by one QR of [Y, Z].

    ``y`` holds the eigenvectors of a Rayleigh-Ritz step as columns, the
    first ``k`` of them the Ritz vectors Y.  Z holds the ``active`` Ritz
    vectors with their first k (X) entries zeroed, at most len(y) - k of
    them; the QR of [Y, Z] makes them orthonormal to Y and to each other.
    A column left with at most 1e-10 of its norm is dropped and the QR
    redone.  Returns the steps as rows, like relquant._ritz_steps, which
    takes them from the eigenvectors y[:, k:] with no QR.
    """
    z = y[:, :k][:, active][:, :len(y) - k]
    z[:k] = 0.0
    while True:
        q, rz = np.linalg.qr(np.hstack((y[:, :k], z)))
        keep = np.abs(np.diagonal(rz)[k:]) > 1e-10 * np.linalg.norm(z, axis=0)
        if keep.all():
            return q[:, k:].T
        z = z[:, keep]


def cartesian_ground_state(n_points, length, m1, m2, alpha, c=1.0,
                           kinetic="salpeter", softening=None, n_levels=1,
                           maxiter=None, tol=1e-8):
    """Low eigenvalues of the same operator on a 3-d periodic FFT grid.

    The kinetic term is diagonal in k after an FFT, the potential diagonal
    in position, so one product costs an FFT pair.  Uses the LOBPCG solve
    of ``radial_levels`` with the preconditioner 1/(T(|k|) + shift) on the
    FFT grid; every level's residual must fall below ``tol`` times the
    energy scale E of ``radial_levels`` within ``maxiter`` iterations
    (default 200), restarts included, else NonConvergenceError.  The
    start block is a seeded perturbation of exp(-r/(0.1 length)), which
    breaks the cube's symmetries.  The box is a cube of side ``length``
    centered on the charge, momenta are the periodic FFT frequencies, and
    ``softening`` defaults to the grid spacing (a cube this coarse needs
    more smoothing than the radial grid).
    """
    if n_points < 8:
        raise ValueError("n_points must be >= 8")
    dx = length / n_points
    if softening is None:
        softening = dx
    axis = (np.arange(n_points) - n_points // 2) * dx
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
    r2 = x**2 + y**2 + z**2
    v = -alpha * c / np.sqrt(r2 + softening**2)

    kax = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    half = 2.0 * np.pi * np.fft.rfftfreq(n_points, d=dx)  # rfftn's last axis
    kx, ky, kz = np.meshgrid(kax, kax, half, indexing="ij", sparse=True)
    tk = kinetic_dispersion(np.sqrt(kx**2 + ky**2 + kz**2), m1, m2, c, kinetic)
    scale = _energy_scale(m1 * m2 / (m1 + m2), c, alpha, v)
    t_min = kinetic_dispersion(kax[1], m1, m2, c, kinetic)
    inverse = 1.0 / (tk + scale / (2.0 * n_levels**2) + t_min)

    shape = (n_points,) * 3
    size = n_points**3

    def in_k(diag, grids):
        return irfftn(diag * rfftn(grids, axes=(1, 2, 3)), s=shape, axes=(1, 2, 3))

    # a block of rows as a stack of grids and back
    def apply_h(u):
        grids = u.reshape((-1,) + shape)
        return (in_k(tk, grids) + v * grids).reshape(-1, size)

    def apply_m(u):
        return in_k(inverse, u.reshape((-1,) + shape)).reshape(-1, size)

    envelope = np.exp(-np.sqrt(r2) / (0.1 * length)).reshape(1, size)
    vals, _ = _lowest_eigenpairs(
        apply_h, apply_m, _start_block(np.repeat(envelope, n_levels, axis=0)),
        tol * (scale + t_min),
        _MAXITER if maxiter is None else maxiter,
        f"the {n_points}^3 grid",
    )
    return vals


def rho_gradient(potential, q1q2, m1, m2, c, rho, pi):
    """dV/drho at the 3-vectors rho, pi (an energy), on numpy: the formula
    that potentials' float kernels write out component by component."""
    if potential == "none":
        return np.zeros(3)
    r = _sep(rho, "potential gradient")
    g_rho = -q1q2 * rho / (4.0 * np.pi * r**3)
    if potential == "coulomb":
        return g_rho
    if potential != "coulomb+darwin":
        raise ValueError(f"unknown potential {potential!r}")
    a = -q1q2 / (8.0 * np.pi * m1 * m2 * c**2)
    pr = _dot3(pi, rho)
    return g_rho + a * (
        -_dot3(pi, pi) * rho / r**3 + 2.0 * pr * pi / r**3 - 3.0 * pr**2 * rho / r**5
    )


def pi_gradient(potential, q1q2, m1, m2, c, rho, pi):
    """dV/dpi at the 3-vectors rho, pi (an energy), on numpy; zero unless the
    Darwin term is on."""
    if potential in ("none", "coulomb"):
        return np.zeros(3)
    if potential != "coulomb+darwin":
        raise ValueError(f"unknown potential {potential!r}")
    r = _sep(rho, "potential gradient")
    a = -q1q2 / (8.0 * np.pi * m1 * m2 * c**2)
    return a * (2.0 * pi / r + 2.0 * _dot3(pi, rho) * rho / r**3)


def mc_gradients(rel, potential, rho, pi):
    """(dH/drho, dH/dpi) of the invariant-mass Hamiltonian Mc(rho, pi), in
    the numpy arithmetic that evolve's float loop repeats."""
    e1, e2 = _energies(rel, pi)
    args = (potential, rel.charge_product, rel.m1, rel.m2, rel.c, rho, pi)
    return (rho_gradient(*args) / rel.c,
            pi * (1.0 / e1 + 1.0 / e2) + pi_gradient(*args) / rel.c)


def bound_clears(ax, ay, az, bx, by, bz, r_floor):
    """The triangle bound of evolve's collision pre-test, on floats: True
    where |b| - |b - a| clears r_floor by restframe's _BOUND_RTOL and
    _BOUND_ATOL, compared squared; restframe._swept_distance then passes
    the segment too.  NaN and inf never clear.  evolve's loop inlines it."""
    dx, dy, dz = bx - ax, by - ay, bz - az
    e = math.sqrt((bx * bx + by * by) + bz * bz) * (1.0 - 2.0 * _BOUND_RTOL) - (
        r_floor + _BOUND_ATOL)
    return 0.0 < e < math.inf and e * e > (dx * dx + dy * dy) + dz * dz


def stepwise_evolve(rel, potential, dtau, n_steps, fp_max_iter=50, collision_fraction=1e-3):
    """The rest-frame leapfrog one step and one sample at a time.

    Every step evaluates the full gradient pair three times and records Mc
    and L sample by sample with per-vector products, where the library
    reuses one gradient per step and evaluates Mc and L over the whole
    trajectory afterwards.  Same arithmetic per step, so the two must agree
    bit for bit, errors included.

    The samples sit at rest times rel.tau + k * dtau, k = 0..n_steps.

    A fixed-step second-order symmetric (generalized leapfrog) scheme:
    momentum-independent potentials use the explicit kick-drift-kick form;
    the Darwin term makes dH/drho depend on pi and dH/dpi on rho, so those
    substeps turn implicit and are solved by fixed-point iteration to a
    relative update of 1e-12 (NonConvergenceError after ``fp_max_iter``
    sweeps).

    Raises CollisionError, carrying the last good sample, when a step passes
    within ``collision_fraction`` times the initial separation of rho = 0
    (checked against the whole straight segment swept during the step, so a
    plunge cannot tunnel through the singularity between samples).
    """
    if potential not in POTENTIALS:
        raise ValueError(f"potential must be one of {POTENTIALS}")
    if not dtau > 0:
        raise ValueError("dtau must be positive")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")

    implicit = potential == "coulomb+darwin"
    fp_tol = 1e-12
    rho = np.array(rel.rho, dtype=float)
    pi = np.array(rel.pi, dtype=float)
    r_floor = collision_fraction * np.linalg.norm(rho)

    taus = rel.tau + dtau * np.arange(n_steps + 1)
    rhos = np.empty((n_steps + 1, 3))
    pis = np.empty((n_steps + 1, 3))
    hs = np.empty(n_steps + 1)
    ls = np.empty((n_steps + 1, 3))

    def record(k, rho, pi):
        rhos[k] = rho
        pis[k] = pi
        hs[k] = _mass_and_weights(rel, potential, rho, pi)[0]
        ls[k] = np.cross(rho, pi)

    def fixed_point(update, x, what, k):
        """Iterate x <- update(x) until an update moves x by at most fp_tol."""
        for sweep in range(fp_max_iter):
            x_new = update(x)
            delta = np.max(np.abs(x_new - x))
            x = x_new
            if delta <= fp_tol * max(1.0, np.max(np.abs(x))):
                return x, sweep + 1
        raise NonConvergenceError(
            f"implicit {what} substep stalled at step {k} (last update {delta:.3e})"
        )

    def check_separation(k, rho_old, rho):
        # closest approach of the swept segment to the origin
        d = rho - rho_old
        dd = d @ d
        t = 0.0 if dd == 0.0 else float(np.clip(-(rho_old @ d) / dd, 0.0, 1.0))
        closest = rho_old + t * d
        if np.linalg.norm(closest) <= r_floor:
            raise CollisionError(
                f"separation fell below {r_floor:.3e} during step {k}",
                last_state=(float(taus[k - 1]), rhos[k - 1].copy(), pis[k - 1].copy()),
            )

    record(0, rho, pi)
    max_sweeps = 0
    for k in range(1, n_steps + 1):
        rho_old = rho
        if implicit:
            # half kick, implicit in the updated momentum
            pi_h, sweeps = fixed_point(
                lambda p: pi - 0.5 * dtau * mc_gradients(rel, potential, rho, p)[0],
                pi, "momentum", k,
            )
            max_sweeps = max(max_sweeps, sweeps)
            # symmetric drift, implicit in the updated position
            _, g_pi_old = mc_gradients(rel, potential, rho, pi_h)
            rho_new, sweeps = fixed_point(
                lambda r: rho + 0.5 * dtau * (g_pi_old + mc_gradients(rel, potential, r, pi_h)[1]),
                rho + dtau * g_pi_old, "position", k,
            )
            max_sweeps = max(max_sweeps, sweeps)
            rho = rho_new
        else:
            pi_h = pi - 0.5 * dtau * mc_gradients(rel, potential, rho, pi)[0]
            rho = rho + dtau * mc_gradients(rel, potential, rho, pi_h)[1]
        pi = pi_h - 0.5 * dtau * mc_gradients(rel, potential, rho, pi_h)[0]
        check_separation(k, rho_old, rho)
        record(k, rho, pi)

    scheme = "generalized-leapfrog(implicit)" if implicit else "leapfrog"
    traj = Trajectory(
        tau=taus, rho=rhos, pi=pis, H=hs, L=ls,
        m1=rel.m1, m2=rel.m2, charge_product=rel.charge_product,
        potential=potential, c=rel.c, dtau=float(dtau), scheme=scheme,
        meta={"fp_tol": fp_tol, "max_fixed_point_sweeps": max_sweeps},
    )
    return traj


def samplewise_reconstruct_worldlines(traj, z, h):
    """Lab world-lines one sample at a time.

    One weight evaluation and two tetrad products per sample, where the
    library evaluates the weights and products over all samples at once.

    x_i(tau) = X_FP(tau) + eps_r(h) eta_i^r(tau): the covariant center
    world-line is rebuilt from the frozen Jacobi data (z, h) with Mc and
    S_bar taken from the trajectory's initial sample, and the internal
    positions are inserted along the boost tetrad.  Each segment of each
    world-line is checked to be causal (non-spacelike); flags are reported
    per segment in ``timelike``.
    """
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    mc = float(traj.H[0])
    s_bar = np.cross(traj.rho[0], traj.pi[0])
    g = collective.external_generators(z, h, mc, s_bar, c=traj.c)
    fp = collective.fokker_pryce_worldline(g)
    boost = boost_from_h(h)
    tetrad = boost[:, 1:]

    n = traj.tau.shape[0]
    fp_events = fp(traj.tau)
    events = np.empty((2, n, 4))
    rel = RelativeState(traj.m1, traj.m2, traj.rho[0], traj.pi[0],
                        traj.charge_product, traj.c)
    for k in range(n):
        rho = traj.rho[k]
        _, w1, w2 = _mass_and_weights(rel, traj.potential, rho, traj.pi[k])
        events[0, k] = fp_events[k] + tetrad @ (w1 * rho)
        events[1, k] = fp_events[k] + tetrad @ (-w2 * rho)

    deltas = np.diff(events, axis=1)
    timelike = deltas[..., 0] ** 2 - np.sum(deltas[..., 1:] ** 2, axis=-1) >= -1e-12
    return ReconstructedWorldlines(
        tau=traj.tau.copy(),
        events=events,
        fp_events=fp_events,
        tetrad=tetrad,
        h=h,
        Mc=mc,
        timelike=timelike,
    )


def cellwise_csv(header, rows):
    """CSV text as csv.writer writes it, each number formatted on its own.

    The CLI renders a float table with one %-format over all its cells, and
    any other rows through csv.writer with "%.17g" % cell; this is the
    cell-by-cell route both must match: every non-text cell through float()
    and format(..., ".17g"), then the csv module's minimal quoting with LF
    line endings.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else format(float(v), ".17g") for v in row]
                     for row in rows)
    return buf.getvalue()
