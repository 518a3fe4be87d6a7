"""Flat space-time primitives: metric, boosts, Wigner rotations.

Four-vectors are plain numpy arrays of shape (4,), ordered (x0, x1, x2, x3),
with the time component carrying the c factor so that all four entries share
one unit (lengths for events, momentum units for four-momenta).  The scalar
products work on trailing axes, and boost_from_h takes a stack of h shaped
(..., 3) and returns the stack of boosts (..., 4, 4).  The metric is

    eta = sgn * diag(+1, -1, -1, -1),      sgn in {+1, -1}

so sgn=+1 is the mostly-minus particle-physics convention and sgn=-1 the
mostly-plus one.  Functions whose result depends on the convention take sgn
explicitly (default +1); convention-independent quantities, like the interval
x0^2 - |x|^2 and the boost and Wigner-rotation matrices, take no sgn.

Boosts are parameterized by the dimensionless vector h = p/(Mc), i.e. by
gamma * beta rather than beta, which keeps every real 3-vector h a valid
argument and makes boost composition with momenta exact:
boost_from_h(h) maps (Mc, 0, 0, 0) to (Mc*sqrt(1+h^2), Mc*h).
"""

import numpy as np

from .errors import NonTimelikeError

__all__ = [
    "metric",
    "minkowski_dot",
    "interval",
    "is_timelike_future",
    "boost_from_h",
    "standard_boost",
    "rotation_to_lorentz",
    "is_lorentz",
    "wigner_rotation",
]

_SIGNS = (1, -1)


def _check_sgn(sgn):
    if sgn not in _SIGNS:
        raise ValueError(f"sgn must be +1 or -1, got {sgn!r}")


def metric(sgn=1):
    """Return the 4x4 flat metric sgn*diag(+1, -1, -1, -1)."""
    _check_sgn(sgn)
    return sgn * np.diag([1.0, -1.0, -1.0, -1.0])


def minkowski_dot(a, b, sgn=1):
    """Scalar product a^mu eta_mu_nu b^nu.  Works on trailing axes of arrays."""
    _check_sgn(sgn)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return sgn * (a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1))


def _dot3(a, b):
    """a . b row by row of (..., 3) stacks of one shape, or of a stack and one
    3-vector, as (a0 b0 + a1 b1) + a2 b2: the order of _mv and of evolve's loop."""
    a, b = a.T, b.T
    return ((a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]).T


def _mv(a, v):
    """a v for matrices (..., m, k) and vectors (..., k), stacks broadcast: the
    k products added left to right, the same on every CPU and in every stack,
    where ``@``, np.vecdot and np.linalg.norm take the CPU's BLAS and SIMD kernels."""
    a, v = a.T, v.T
    pad = a.ndim - 1 - v.ndim  # trailing unit axes align the reversed stacks
    a = a.reshape(a.shape + (1,) * -pad) if pad < 0 else a
    v = v.reshape(v.shape + (1,) * pad) if pad > 0 else v
    p = np.multiply(a, v[:, None], order="C")
    return sum(p[1:], p[0]).T  # left to right


def _cross3(a, b):
    """a x b, row by row as _dot3 takes its arguments, in np.cross's operations
    (a1 b2 - a2 b1, ...) without its 16 us of set-up a call."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


def interval(v):
    """Convention-independent interval v0^2 - |v|^2 (positive for timelike)."""
    v = np.asarray(v, dtype=float)
    # the same sum, left to right, as np.sum over the spatial axis, without
    # the cost of a reduction over a length-3 axis
    return v[..., 0] ** 2 - (v[..., 1] ** 2 + v[..., 2] ** 2 + v[..., 3] ** 2)


def is_timelike_future(v):
    v = np.asarray(v, dtype=float)
    return bool(np.all(interval(v) > 0.0) and np.all(v[..., 0] > 0.0))


def boost_from_h(h):
    """Pure (rotation-free) boost with velocity parameter h = gamma*beta.

    Maps the rest-frame momentum (Mc, 0, 0, 0) to (Mc*sqrt(1+h^2), Mc*h).
    h may be a stack shaped (..., 3); the result is then shaped (..., 4, 4),
    and each matrix is bitwise the one a single (3,) call gives.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-1:] != (3,):
        raise ValueError(f"h must be a 3-vector or a stack of them, got shape {h.shape}")
    gamma = np.sqrt(1.0 + _dot3(h, h))
    lam = np.empty(h.shape[:-1] + (4, 4))
    lam[..., 0, 0] = gamma
    lam[..., 0, 1:] = h
    lam[..., 1:, 0] = h
    outer = h[..., :, None] * h[..., None, :]
    lam[..., 1:, 1:] = np.eye(3) + outer / (1.0 + gamma)[..., None, None]
    return lam


def standard_boost(p):
    """Standard boost B(p): the pure boost taking (Mc, 0) to the momentum p.

    p must be timelike and future-pointing; raises NonTimelikeError otherwise.
    """
    p = np.asarray(p, dtype=float)
    m2 = interval(p)
    if not (m2 > 0.0 and p[0] > 0.0):  # NaN fails too
        raise NonTimelikeError(f"momentum {p} is not timelike future-pointing")
    return boost_from_h(p[1:] / np.sqrt(m2))


def rotation_to_lorentz(r):
    """Embed a 3x3 rotation matrix as the spatial block of a 4x4 transform."""
    r = np.asarray(r, dtype=float)
    lam = np.eye(4)
    lam[1:, 1:] = r
    return lam


def is_lorentz(lam, sgn=1, tol=1e-12):
    """True if lam^T eta lam = eta to within tol (max-abs entry)."""
    eta = metric(sgn)
    lam = np.asarray(lam, dtype=float)
    return bool(np.max(np.abs(lam.T @ eta @ lam - eta)) <= tol)


def wigner_rotation(p, lam):
    """Spatial rotation R(lam, p) = B(lam p)^-1 lam B(p) as a 3x3 matrix.

    For timelike future-pointing p the composition of standard boosts above
    leaves the rest frame, so the 4x4 product is block-diagonal 1 (+) R.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    bp = standard_boost(p)
    p2 = lam @ p
    bp2 = standard_boost(p2)
    w = np.linalg.solve(bp2, lam @ bp)
    return w[1:, 1:].copy()

