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

The solver forms no matrix and needs numpy alone; a block of vectors holds
one vector per row, so that every transform runs along contiguous memory.
On sine coefficients H applied to a block is diagonal T plus one FFT pair for
V, since multiplying by V is a symmetric convolution there (Martucci, IEEE
Trans. Signal Process. 42, 1038 (1994)) that zero-pads to a 5-smooth length;
the sine transform itself is one rfft of the odd extension.  The lowest
levels come from a block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 517
(2001)) preconditioned in momentum space by 1/(T(k) + shift), the choice of
plane-wave codes (Teter, Payne & Allan, PRB 40, 12255 (1989)), whose basis
is kept orthonormal as by Hetmaniuk & Lehoucq (J. Comput. Phys. 218, 324
(2006)), so that Rayleigh-Ritz is a plain symmetric eigensolve.

The Coulomb singularity is softened, V = -alpha*c/sqrt(r^2 + eps^2), with
eps defaulting to a quarter grid spacing.  For ell > 0 the centrifugal
barrier ell(ell+1)/(2 mu r^2), softened alike, is added to V for both
kinetic kinds.  With kinetic="salpeter" that is an approximation: the
relativistic operator is T(|p|) with p^2 including ell(ell+1)/r^2.
"""

import math
import warnings

import numpy as np
from numpy.fft import irfft, rfft

from .errors import NonConvergenceError
from .potentials import KINETIC_KINDS

__all__ = ["KINETIC_KINDS", "kinetic_dispersion", "radial_grid",
           "radial_levels"]

# radial_levels: residual tolerance as a fraction of the energy scale
# (see _energy_scale); LOBPCG iterations per restart
_RADIAL_TOL = 1e-8
_MAXITER = 200


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
        warnings.warn("alpha <= 0 gives a repulsive or free system; the "
                      "spectrum will contain no bound levels", stacklevel=3)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        tk = kinetic_dispersion(k, m1, m2, c, kinetic)
        v = -alpha * c / np.sqrt(r**2 + softening**2)
        if ell:
            mu = m1 * m2 / (m1 + m2)
            v = v + ell * (ell + 1) / (2.0 * mu * (r**2 + softening**2))
    if not (np.all(np.isfinite(tk)) and np.all(np.isfinite(v))):
        raise FloatingPointError(
            f"radial Hamiltonian is not finite on this grid (length={length}, "
            f"n_points={n_points}, softening={softening})")
    return r, tk, v


def _sine(u):
    """Orthonormal DST-I along the rows; it is its own inverse.

    One rfft of the odd extension (0, u, 0, -reversed u) of period 2(n+1),
    whose imaginary part is -2 times the sine sum.
    """
    n = u.shape[-1]
    odd = np.zeros(u.shape[:-1] + (2 * (n + 1),))
    odd[..., 1:n + 1] = u
    odd[..., n + 2:] = -u[..., ::-1]
    return rfft(odd).imag[..., 1:n + 1] * -(2 * (n + 1)) ** -0.5


def _next_fast_len(n):
    """Smallest 2^a 3^b 5^c >= n, the rfft sizes pocketfft is fastest at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _potential_product(v):
    """coef -> _sine(v * _sine(coef)) along the rows, by one FFT pair.

    In the sine basis diag(v) is t(k - l) - t(k + l), t the even DCT-I of v
    with period 2(n+1): zero-padded to a fast length >= 2n - 1, a circular
    convolution with t minus one of the reversed row with t(2..2n), whose
    rfft is conj(X) times a phase that the Hankel kernel absorbs.
    """
    n = v.shape[0]
    size = _next_fast_len(2 * n - 1)
    t = irfft(np.concatenate(([0.0], v, [0.0])), 2 * (n + 1))
    d = np.arange(size)
    # circularly even, so its spectrum is real; the middle of it is never read
    even = rfft(t[np.minimum(d, size - d)]).real
    hankel = rfft(t[2:], size)

    def apply(coef):
        # even * f - hankel * conj(f), in place; the operand order keeps
        # each complex product's rounding
        f = rfft(coef, size)
        g = np.conjugate(f)
        np.multiply(hankel, g, out=g)
        np.multiply(even, f, out=f)
        np.subtract(f, g, out=f)
        return irfft(f, size)[..., :n]

    return apply


def _energy_scale(mu, c, alpha, v):
    """Binding scale mu (c alpha)^2, or the well depth max|V| when the
    softening, wider than the Bohr radius, makes the well shallower."""
    return min(mu * (c * alpha) ** 2, np.abs(v).max())


def _start_block(rows):
    """Orthonormal start block: the unit rows plus a seeded perturbation.

    The perturbation, 1e-3 of each row, keeps the preconditioned residuals
    of nearly parallel rows independent at the first step, and breaks
    symmetries the rows share.  Norms and noise are taken on the n x k
    transpose, which fixes the block bit for bit whatever the layout.
    """
    x = rows / np.linalg.norm(rows.T.copy(), axis=0)[:, None]
    noise = np.random.default_rng(7).standard_normal(x.shape[::-1]).T
    return np.linalg.qr((x + 1e-3 / np.sqrt(x.shape[1]) * noise).T)[0].T


def _row_norms(a):
    """Norms of the rows, the bits of np.linalg.norm(a, axis=1)."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _orthonormal_rows(v, sizes, basis=()):
    """Gram-Schmidt on the rows of ``v``, each projected twice out of the
    orthonormal rows ``basis`` and the rows kept before it; one left with at
    most 1e-10 of its ``size`` is dropped, not normalized."""
    b = len(basis)
    q, j = np.concatenate((np.asarray(basis).reshape(b, v.shape[1]), v)), b
    for i, size in enumerate(sizes, b):
        row = q[i]  # projected in place: the kept rows q[:j] lie before it
        for _ in range(2 if j else 0):
            row -= q[:j].dot(row).dot(q[:j])
        norm = math.sqrt(row.dot(row))
        if norm > 1e-10 * size:
            np.multiply(row, 1.0 / norm, out=q[j])
            j += 1
    return q[b:j]


def _ritz_steps(y, k, active):
    """P in the small space: the active Ritz vectors' steps out of X, at
    most len(y) - k, orthonormal in the span of the eigenvectors y[:, k:]."""
    z = y[k:, :k].T[active][:len(y) - k]
    return _orthonormal_rows(z @ y[k:, k:], _row_norms(z)) @ y[:, k:].T


def _lowest_eigenpairs(apply_h, apply_m, x, tol, maxiter, where):
    """Lowest eigenpairs of a symmetric operator, one per row of ``x``.

    Block LOBPCG from the start block ``x``, kept orthonormal as by
    Hetmaniuk & Lehoucq: the preconditioned residuals W of the unconverged
    rows are made orthonormal to [X, P], and P is the complement of the
    Ritz vectors inside the span of [W, P], so Rayleigh-Ritz on [X, W, P]
    is a plain eigh.  Each iteration applies H to W only; H X and H P are
    carried by the small-space combinations that give X and P.  When the
    carried residuals all meet ``tol``, or after _MAXITER iterations, H X
    is computed afresh and every level's true residual |H x - lambda x|
    checked against ``tol``.  The block restarts from there while the worst
    residual at least halves within ``maxiter`` iterations in all, else
    raises NonConvergenceError.  Returns (ascending values, orthonormal rows).
    """
    k = x.shape[0]
    worst, iterations, restarts = np.inf, 0, -1
    while True:
        restarts += 1
        x = np.linalg.qr(x.T)[0].T
        hx = apply_h(x)
        vals, c = np.linalg.eigh(hx @ x.T)
        x, hx = c.T @ x, c.T @ hx
        res = _row_norms(hx - vals[:, None] * x).max()
        if res <= tol:
            return vals, x
        if not (res <= 0.5 * worst and iterations < maxiter):
            raise NonConvergenceError(
                f"LOBPCG left a residual of {res:.2e} (tolerance {tol:.2e}) "
                f"for the {k} lowest levels on {where} after {iterations} "
                f"iterations and {restarts} restarts")
        worst = res
        xp, hxp = x, hx  # [X, P] and H [X, P]; P is empty at a restart
        for _ in range(min(_MAXITER, maxiter - iterations)):
            r = hxp[:k] - vals[:k, None] * xp[:k]
            active = _row_norms(r) > tol
            if not active.any():
                break
            iterations += 1
            w = apply_m(r[active])
            w = _orthonormal_rows(w, _row_norms(w), xp)
            s = np.concatenate((xp, w))
            hs = np.concatenate((hxp, apply_h(w)))
            vals, y = np.linalg.eigh(hs @ s.T)
            coef = np.concatenate((y[:, :k].T, _ritz_steps(y, k, active)))
            xp, hxp = coef @ s, coef @ hs
        x = xp[:k]


def radial_levels(n_points, length, m1, m2, alpha, c=1.0, kinetic="salpeter",
                  ell=0, softening=None, n_levels=6, return_states=False):
    """Lowest bound-state energies of the radial problem, ascending.

    Matrix-free: on sine coefficients H is diagonal T plus one FFT pair for
    V, solved by LOBPCG with the diagonal preconditioner 1/(T(k) + shift).
    The shift is the Bohr binding of the highest requested level,
    E / (2 (ell + n_levels)^2), with the energy scale E = mu (c alpha)^2,
    or max|V| if that is smaller.  The start block is hydrogen-like,
    r^(ell+j) exp(-r/((ell+j) a)) for j = 1..n_levels with the Bohr radius
    a = 1/(mu c alpha) kept inside [dr, length].  Every level's residual is
    brought below 1e-8 of E, or the round-off of one product if larger, by
    restarts of up to 200 iterations each (4000 in all) while the worst
    residual halves; NonConvergenceError otherwise, as for ell = 200 on the
    committed 1024-point grid, whose barrier leaves no level bound.
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

    bohr = 1.0 / (mu * c * alpha) if alpha > 0 else length
    a = min(max(bohr, r[0]), length)
    shell = ell + np.arange(1, n_levels + 1)[:, None]
    # in logs, scaled per row, so that no power of r overflows
    log_x = shell * np.log(r / a) - r / (shell * a)
    start = _sine(_start_block(np.exp(log_x - log_x.max(axis=1)[:, None])))

    # on sine coefficients T and the preconditioner are diagonal
    apply_v = _potential_product(v)
    vals, coef = _lowest_eigenpairs(
        lambda coef: tk * coef + apply_v(coef), lambda coef: inverse * coef,
        start, tol, 20 * _MAXITER,
        f"the {n_points}-point radial grid (length={length}, ell={ell})")
    if return_states:
        return vals, _sine(coef).T, r
    return vals
