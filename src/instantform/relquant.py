"""Two-body bound-state spectra with a relativistic kinetic operator.

The mass spectrum of the quantized two-body system in its rest frame is the
eigenvalue problem for the invariant-mass operator

    M c^2 = sqrt(m1^2 c^4 + k^2 c^2) + sqrt(m2^2 c^4 + k^2 c^2) + V(r),

restricted here to a central Coulomb interaction V = -alpha*c/r (hbar = 1,
alpha dimensionless, so alpha*c carries energy times length).  Energies are
reported with the rest energy (m1 + m2) c^2 subtracted, which makes them
directly comparable with the nonrelativistic Balmer values
-mu c^2 alpha^2 / (2 n^2).

Two discretizations are provided.  The radial one expands the reduced wave
function u(r) = r R(r) on a uniform grid with u(0) = u(L) = 0; the sine
transform (DST-I) diagonalizes any function of k^2 on that grid, so the
square roots above are exact in the basis rather than Taylor-expanded.  The
Cartesian one builds the same operator on a 3-d FFT grid as a LinearOperator
and extracts low eigenvalues iteratively; it is slower and coarser but makes
no radial-reduction assumptions, so it serves as a cross-check.

The Coulomb singularity is softened, V = -alpha*c/sqrt(r^2 + eps^2), with
eps defaulting to a quarter grid spacing.
"""

import warnings

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NonConvergenceError

__all__ = [
    "KINETIC_KINDS",
    "kinetic_dispersion",
    "radial_grid",
    "build_radial_hamiltonian",
    "radial_levels",
    "cartesian_ground_state",
]

KINETIC_KINDS = ("salpeter", "nonrelativistic")


def kinetic_dispersion(k, m1, m2, c=1.0, kind="salpeter"):
    """Two-body kinetic energy at relative momentum k, rest energy removed.

    "salpeter" keeps both square roots; "nonrelativistic" is their quadratic
    expansion k^2/(2 mu).  The expansion bounds the exact dispersion from
    above at every k, which orders the two spectra level by level when both
    operators are built on the same grid with the same potential.
    """
    k = np.asarray(k, dtype=float)
    if kind == "salpeter":
        e1 = np.sqrt((m1 * c**2) ** 2 + (k * c) ** 2)
        e2 = np.sqrt((m2 * c**2) ** 2 + (k * c) ** 2)
        return e1 + e2 - (m1 + m2) * c**2
    if kind == "nonrelativistic":
        mu = m1 * m2 / (m1 + m2)
        return k**2 / (2.0 * mu)
    raise ValueError(f"kinetic must be one of {KINETIC_KINDS}")


def radial_grid(n_points, length):
    """Interior grid r_j = j*dr and the DST-I momenta k_m = m*pi/L."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not length > 0:
        raise ValueError("length must be positive")
    idx = np.arange(1, n_points + 1)
    dr = length / (n_points + 1)
    return idx * dr, idx * np.pi / length


def build_radial_hamiltonian(n_points, length, m1, m2, alpha, c=1.0,
                             kinetic="salpeter", ell=0, softening=None):
    """Dense symmetric Hamiltonian for u(r) on the interior grid.

    Returns (H, r).  The kinetic part is assembled in the sine basis,
    T = (2/(n+1)) S diag(T(k_m)) S with S_mj = sin(m j pi/(n+1)), which is
    the exact representation of T(k^2) under Dirichlet walls at 0 and L.
    softening defaults to length/(4*n_points); for ell > 0 the centrifugal
    barrier ell(ell+1)/(2 mu (r^2 + eps^2)) joins the potential, softened
    the same way.  Raises FloatingPointError when the kinetic or potential
    term is not finite on the grid, as for a vanishingly small ``length``.
    """
    r, k = radial_grid(n_points, length)
    if softening is None:
        softening = length / (4.0 * n_points)
    if softening < 0:
        raise ValueError("softening must be >= 0")
    if alpha <= 0:
        warnings.warn(
            "alpha <= 0 gives a repulsive or free system; the spectrum "
            "will contain no bound levels",
            stacklevel=2,
        )

    tk = kinetic_dispersion(k, m1, m2, c, kinetic)
    v = -alpha * c / np.sqrt(r**2 + softening**2)
    if ell:
        mu = m1 * m2 / (m1 + m2)
        v = v + ell * (ell + 1) / (2.0 * mu * (r**2 + softening**2))
    if not (np.all(np.isfinite(tk)) and np.all(np.isfinite(v))):
        raise FloatingPointError(
            f"radial Hamiltonian is not finite on this grid (length={length}, "
            f"n_points={n_points}, softening={softening})"
        )

    idx = np.arange(1, n_points + 1)
    s = np.sin(np.pi / (n_points + 1) * np.outer(idx, idx))
    h = (2.0 / (n_points + 1)) * (s @ (tk[:, None] * s))
    h[np.diag_indices_from(h)] += v
    return 0.5 * (h + h.T), r


def radial_levels(n_points, length, m1, m2, alpha, c=1.0, kinetic="salpeter",
                  ell=0, softening=None, n_levels=6, return_states=False):
    """Lowest bound-state energies of the radial problem, ascending."""
    h, r = build_radial_hamiltonian(
        n_points, length, m1, m2, alpha, c, kinetic, ell, softening
    )
    if return_states:
        vals, vecs = eigh(h, subset_by_index=(0, n_levels - 1))
        return vals, vecs, r
    vals = eigh(h, eigvals_only=True, subset_by_index=(0, n_levels - 1))
    return vals


def cartesian_ground_state(n_points, length, m1, m2, alpha, c=1.0,
                           kinetic="salpeter", softening=None, n_levels=1,
                           maxiter=None, tol=1e-8):
    """Low eigenvalues of the same operator on a 3-d periodic FFT grid.

    The kinetic term is diagonal in k after an FFT, the potential diagonal
    in position, so one matvec costs two 3-d FFTs.  Uses a Lanczos solve for
    the smallest algebraic eigenvalues; raises NonConvergenceError if it
    fails to settle.  The box is a cube of side ``length`` centered on the
    charge, momenta are the periodic FFT frequencies, and ``softening``
    defaults to the grid spacing (a cube this coarse needs more smoothing
    than the radial grid).
    """
    if n_points < 8:
        raise ValueError("n_points must be >= 8")
    dx = length / n_points
    if softening is None:
        softening = dx
    axis = (np.arange(n_points) - n_points // 2) * dx
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
    r = np.sqrt(x**2 + y**2 + z**2 + softening**2)
    v = -alpha * c / r

    kax = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    kx, ky, kz = np.meshgrid(kax, kax, kax, indexing="ij", sparse=True)
    kmag = np.sqrt(kx**2 + ky**2 + kz**2)
    tk = kinetic_dispersion(kmag, m1, m2, c, kinetic)

    shape = (n_points,) * 3
    size = n_points**3

    def matvec(psi):
        grid = psi.reshape(shape)
        out = np.fft.ifftn(tk * np.fft.fftn(grid)) + v * grid
        return np.real(out).ravel()

    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    rng = np.random.default_rng(7)
    v0 = np.exp(-np.sqrt(x**2 + y**2 + z**2) / (0.1 * length)).ravel()
    v0 += 1e-3 * rng.standard_normal(size)
    try:
        vals = eigsh(op, k=n_levels, which="SA", v0=v0, tol=tol,
                     maxiter=maxiter, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"Lanczos failed to converge {n_levels} levels on the "
            f"{n_points}^3 grid: {exc}"
        ) from exc
    return np.sort(vals)
