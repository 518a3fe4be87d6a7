"""Two-body bound-state spectra with a relativistic kinetic operator.

The mass spectrum of the quantized two-body system in its rest frame is the
eigenvalue problem for the invariant-mass operator

    M c^2 = sqrt(m1^2 c^4 + k^2 c^2) + sqrt(m2^2 c^4 + k^2 c^2) + V(r),

restricted here to a central Coulomb interaction V = -alpha*c/r (hbar = 1,
alpha dimensionless, so alpha*c carries energy times length).  Energies are
reported with the rest energy (m1 + m2) c^2 subtracted, which makes them
directly comparable with the nonrelativistic Balmer values
-mu c^2 alpha^2 / (2 n^2).

The radial discretization expands the reduced wave function u(r) = r R(r)
on a uniform grid with u(0) = u(L) = 0; the sine transform (DST-I)
diagonalizes any function of k^2 on that grid, so the square roots above
are exact in the basis rather than Taylor-expanded.

The solver forms no matrix.  On sine coefficients H applied to a block of
vectors is diagonal T plus one FFT pair for V, since multiplying by V is a
symmetric convolution there (Martucci, IEEE Trans. Signal Process. 42,
1038 (1994)) that zero-pads to a fast length.  The lowest levels come from
LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) preconditioned in
momentum space by 1/(T(k) + shift), the choice of plane-wave codes (Teter,
Payne & Allan, PRB 40, 12255 (1989)).

The Coulomb singularity is softened, V = -alpha*c/sqrt(r^2 + eps^2), with
eps defaulting to a quarter grid spacing.
"""

import warnings

import numpy as np
from scipy.fft import dst, irfft, next_fast_len, rfft
from scipy.sparse.linalg import lobpcg

from .errors import NonConvergenceError
from .potentials import KINETIC_KINDS

__all__ = [
    "KINETIC_KINDS",
    "kinetic_dispersion",
    "radial_grid",
    "radial_levels",
]

# radial_levels: residual tolerance as a fraction of the energy scale
# (see _energy_scale); LOBPCG iterations of one attempt
_RADIAL_TOL = 1e-8
_MAXITER = 200
# LOBPCG calls before a residual check that keeps failing is final
_ATTEMPTS = 3


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


def _radial_terms(n_points, length, m1, m2, alpha, c, kinetic, ell, softening):
    """(r_j, T(k_m), V(r_j)) of the radial problem, V with the ell barrier.

    Warns for alpha <= 0 and raises FloatingPointError when either term is
    not finite on the grid, as for a vanishingly small ``length``.
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
            stacklevel=3,
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
    return r, tk, v


def _sine(u):
    """Orthonormal DST-I down the columns; it is its own inverse."""
    return dst(u, type=1, norm="ortho", axis=0)


def _potential_product(v):
    """coef -> _sine(v * _sine(coef)) down the columns, by one FFT pair.

    In the sine basis diag(v) is t(k - l) - t(k + l), t the even DCT-I of v
    with period 2(n+1): zero-padded to a fast length >= 2n - 1, a circular
    convolution with t minus one of the reversed column with t(2..2n), whose
    rfft is conj(X) times a phase that the Hankel kernel absorbs.
    """
    n = v.shape[0]
    size = next_fast_len(2 * n - 1, real=True)
    t = irfft(np.concatenate(([0.0], v, [0.0])), 2 * (n + 1))
    d = np.arange(size)
    # circularly even, so its spectrum is real; the middle of it is never read
    even = rfft(t[np.minimum(d, size - d)]).real[:, None]
    hankel = rfft(t[2:], size)[:, None]

    def apply(coef):
        # even * f - hankel * conj(f), in place; the operand order keeps
        # each complex product's rounding
        f = rfft(coef, size, axis=0)
        g = np.conjugate(f)
        np.multiply(hankel, g, out=g)
        np.multiply(even, f, out=f)
        np.subtract(f, g, out=f)
        return irfft(f, size, axis=0)[:n]

    return apply


def _energy_scale(mu, c, alpha, v):
    """Binding scale mu (c alpha)^2, or the well depth max|V| when the
    softening, wider than the Bohr radius, makes the well shallower."""
    return min(mu * (c * alpha) ** 2, np.abs(v).max())


def _start_block(columns):
    """Orthonormal start block: the unit columns plus a seeded perturbation.

    The perturbation, 1e-3 of each column, keeps the preconditioned
    residuals of nearly parallel columns independent, which lobpcg needs
    at its first step, and breaks symmetries the columns share.
    """
    x = columns / np.linalg.norm(columns, axis=0)
    noise = np.random.default_rng(7).standard_normal(x.shape)
    return np.linalg.qr(x + 1e-3 / np.sqrt(x.shape[0]) * noise)[0]


def _lowest_eigenpairs(apply_h, apply_m, x, tol, maxiter, where):
    """Lowest eigenpairs of a symmetric operator, one per column of ``x``.

    Runs preconditioned LOBPCG from the orthonormal start block ``x``.
    lobpcg can return early without a warning, so every level's residual
    |H x - lambda x| is checked here against ``tol``; a failed check
    restarts from the returned block, and after _ATTEMPTS calls raises
    NonConvergenceError.  Returns (ascending values, vectors).
    """
    for _ in range(_ATTEMPTS):
        with warnings.catch_warnings():
            # it warns when it stops short (checked below) and when it hands
            # a block too large for the problem to a dense solver
            warnings.simplefilter("ignore", UserWarning)
            vals, x = lobpcg(apply_h, x, M=apply_m, tol=tol, maxiter=maxiter,
                             largest=False)
        order = np.argsort(vals)
        vals, x = vals[order], x[:, order]
        res = np.linalg.norm(apply_h(x) - x * vals, axis=0)
        if np.all(res <= tol):
            return vals, x
    raise NonConvergenceError(
        f"LOBPCG left a residual of {res.max():.2e} (tolerance {tol:.2e}) "
        f"for the {len(vals)} lowest levels on {where} after {_ATTEMPTS} "
        f"attempts of {maxiter} iterations"
    )


def radial_levels(n_points, length, m1, m2, alpha, c=1.0, kinetic="salpeter",
                  ell=0, softening=None, n_levels=6, return_states=False):
    """Lowest bound-state energies of the radial problem, ascending.

    Matrix-free: on sine coefficients H is diagonal T plus one FFT pair for
    V, solved by LOBPCG with the diagonal preconditioner 1/(T(k) + shift).
    The shift is the Bohr binding of the highest requested level,
    E / (2 (ell + n_levels)^2), with the energy scale E = mu (c alpha)^2,
    or max|V| if that is smaller.  The start block is
    hydrogen-like, r^(ell+j) exp(-r/((ell+j) a)) for j = 1..n_levels with
    the Bohr radius a = 1/(mu c alpha) kept inside [dr, length].  Every
    level's residual is brought below 1e-8 of E, or below the round-off of
    one product where that is larger; NonConvergenceError otherwise.
    Raises ValueError unless 1 <= n_levels <= n_points.  With
    ``return_states`` returns (values, orthonormal vectors as columns, r).
    """
    if not 1 <= n_levels <= n_points:
        raise ValueError(f"n_levels must be between 1 and n_points={n_points}")
    r, tk, v = _radial_terms(n_points, length, m1, m2, alpha, c, kinetic,
                             ell, softening)
    mu = m1 * m2 / (m1 + m2)
    scale = _energy_scale(mu, c, alpha, v)
    tol = (_RADIAL_TOL * (scale + tk[0])
           + 64 * np.finfo(float).eps * (tk[-1] + np.abs(v).max()))
    inverse = 1.0 / (tk + scale / (2.0 * (ell + n_levels) ** 2) + tk[0])

    # on sine coefficients T and the preconditioner are diagonal
    apply_v = _potential_product(v)

    def apply_h(coef):
        return tk[:, None] * coef + apply_v(coef)

    def apply_m(coef):
        return inverse[:, None] * coef

    bohr = 1.0 / (mu * c * alpha) if alpha > 0 else length
    a = min(max(bohr, r[0]), length)
    shell = ell + np.arange(1, n_levels + 1)
    # in logs, scaled per column, so that no power of r overflows
    log_x = shell * np.log(r[:, None] / a) - r[:, None] / (shell * a)
    start = _sine(_start_block(np.exp(log_x - log_x.max(axis=0))))

    vals, coef = _lowest_eigenpairs(
        apply_h, apply_m, start, tol, _MAXITER,
        f"the {n_points}-point radial grid (length={length}, ell={ell})",
    )
    if return_states:
        return vals, _sine(coef), r
    return vals
