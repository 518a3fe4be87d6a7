"""Einstein clock synchronization and inversion of foliation charts.

An observer is a timelike world-line w(s) parameterized by proper length
(c times proper time).  The radar time an observer attributes to a distant
event P is the midpoint rule: send a light signal at w(s_emit), receive the
echo at w(s_absorb), and set

    tau_P = (s_emit + s_absorb) / 2.

With dt = P0 - w0(s) and r = |P - w(s)| (spatial part), the emission leg
dt - r and the absorption leg dt + r both fall strictly with s on a timelike
world-line, so each has one root on the domain or none.  einstein_sync
brackets each root by a 512-point scan of the domain and polishes it with
Brent's method (Brent, Algorithms for Minimization without Derivatives,
1973, ch. 4).  The scan belongs to the observer: a Worldline is frozen, and
its first event samples the scan in one w.position call and caches it on
the instance, so later events only take their separations from it.  Brent
evaluates on Python floats: one w.position call per evaluation, then the
separation, f and the legs with the bits of ``minkowski.interval``, without
numpy's per-call cost on 0-d arrays; the built-in observers give a float s
a float branch with the bits of their array path.  On a 2-core Xeon
(Python 3.11, numpy 2.4) an event on a scanned observer takes about 60-80 us
resolved and 15 us refused.  Radar time is defined right up to the observer
(Bini, Lusanna & Mashhoon, IJMP D 14, 1413 (2005)): an event on the
world-line is its own radar time.

radar_coordinates inverts a foliation chart: given an event x and an
embedding z, it solves z(tau, sigma) = x with a damped Newton iteration on
the 4x4 system, using the embedding Jacobian.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InversionError, NonTimelikeError, NoSolutionError
from .minkowski import interval

__all__ = [
    "Worldline",
    "RadarResult",
    "inertial_worldline",
    "rindler_worldline",
    "worldline_from_callable",
    "einstein_sync",
    "radar_coordinates",
]


@dataclass(frozen=True)
class Worldline:
    """Timelike world-line: position and unit four-velocity versus parameter.

    ``position`` and ``velocity`` accept a float or an array of parameter
    values s and return arrays of shape (..., 4).  The parameter is proper
    length, so the four-velocity must satisfy u0^2 - |u|^2 = 1 with u0 > 0;
    ``validate`` spot-checks that on 64 points of the domain, which must be
    finite and increasing.

    The observer is frozen: einstein_sync caches its scan of the domain on
    the instance the first time it is needed, so ``position`` must be a pure
    function of s.  ``dataclasses.replace`` gives a new observer with a
    fresh scan.
    """

    position: callable
    velocity: callable
    domain: tuple
    name: str = "worldline"

    @cached_property
    def _scan(self):
        """The scan parameters, the positions there as four read-only columns
        x0..x3, and the positions at the domain's ends, from one ``position``
        call at the first event."""
        s_grid = np.linspace(self.domain[0], self.domain[1], _SCAN_POINTS)
        columns = np.asarray(self.position(s_grid), dtype=float).T.copy()
        s_grid.flags.writeable = columns.flags.writeable = False
        return s_grid, tuple(columns), (columns[:, 0], columns[:, -1])

    def validate(self):
        lo, hi = self.domain
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"{self.name}: domain must be finite and increasing, "
                             f"got {self.domain}")
        s = np.linspace(lo, hi, 64)
        u = np.asarray(self.velocity(s), dtype=float)
        if not np.all(u[..., 0] > 0.0):
            raise NonTimelikeError(
                f"{self.name}: four-velocity is not future pointing on the domain"
            )
        # u0^2 - |u|^2 cancels catastrophically for fast observers, so the
        # norm check has to be read relative to the magnitudes cancelled
        with np.errstate(over="ignore", invalid="ignore"):   # u or u.u past the float range
            errs = np.abs(interval(u) - 1.0) / np.maximum(1.0, u[..., 0] ** 2)
        if not np.all(errs <= 1e-6):   # NaN, where u or u.u overflows, fails too
            raise NonTimelikeError(
                f"{self.name}: four-velocity is not finite and unit normalized "
                f"(max relative |u.u - 1| = {np.max(errs):.2e}); "
                "parameterize by proper length"
            )
        return self


def inertial_worldline(origin, h, domain=(-100.0, 100.0)):
    """Straight world-line through ``origin`` with velocity parameter h.

    h = gamma*beta as in minkowski.boost_from_h; h = 0 gives a static
    observer.  The four-velocity is u = (sqrt(1+h^2), h).
    """
    origin = np.asarray(origin, dtype=float)
    h = np.asarray(h, dtype=float)
    with np.errstate(over="ignore"):   # an h.h past the float range gives u0 = inf,
        u0 = np.sqrt(1.0 + h @ h)      # which validate refuses as not finite
    u = np.concatenate(([u0], h))

    def position(s):
        if isinstance(s, float):   # a Brent step: the bits of the array path
            return origin + s * u
        s = np.asarray(s, dtype=float)
        return origin + np.multiply.outer(s, u)

    def velocity(s):
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(u, s.shape + (4,)).copy()

    return Worldline(position, velocity, tuple(domain), name="inertial").validate()


def rindler_worldline(accel, domain=(-10.0, 10.0)):
    """Uniformly accelerated observer w(s) = (sinh(a s), cosh(a s), 0, 0)/a.

    Hyperbolic motion in the x direction with proper acceleration ``accel``;
    events with x0 >= x1 lie beyond the horizon and cannot be radar-located.
    """
    a = float(accel)
    if not a > 0:
        raise ValueError("acceleration must be positive")

    def position(s):
        if isinstance(s, float):   # a Brent step: the bits of the array path
            return np.array([np.sinh(a * s) / a, np.cosh(a * s) / a, 0.0, 0.0])
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (4,))
        out[..., 0] = np.sinh(a * s) / a
        out[..., 1] = np.cosh(a * s) / a
        return out

    def velocity(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (4,))
        # past |a s| = 710.5 both overflow to inf, which validate refuses
        with np.errstate(over="ignore"):
            out[..., 0] = np.cosh(a * s)
            out[..., 1] = np.sinh(a * s)
        return out

    return Worldline(position, velocity, tuple(domain), name=f"rindler(a={a})").validate()


def worldline_from_callable(position, domain):
    """Wrap a position callable, its velocity by central differences with
    step 1e-6 * max(1, |s|).  With an exact velocity, build
    Worldline(position, velocity, domain) instead."""

    def fd_velocity(s):
        s = np.asarray(s, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(s))
        return (np.asarray(position(s + h), dtype=float)
                - np.asarray(position(s - h), dtype=float)) / (2.0 * h)[..., None]

    return Worldline(position, fd_velocity, tuple(domain), name="custom").validate()


@dataclass
class RadarResult:
    tau: float            # radar time attributed to the event
    s_emit: float
    s_absorb: float
    emit_event: np.ndarray
    absorb_event: np.ndarray
    residuals: tuple      # |f| at (emit, absorb) over max(1, |P - w(s)|_inf)^2


_SCAN_POINTS = 512   # samples of the domain in einstein_sync's one w.position scan


# minkowski.interval and the legs dt -/+ r of one separation on Python floats,
# bit for bit: numpy squares an array for ** 2 as x * x (Python's ** on a
# float calls libm pow)
def _float_interval(d0, d1, d2, d3):
    return d0 * d0 - ((d1 * d1 + d2 * d2) + d3 * d3)


def _float_legs(d0, d1, d2, d3):
    r = math.sqrt((d1 * d1 + d2 * d2) + d3 * d3)
    return d0 - r, d0 + r


# root tolerances of einstein_sync: |s - root| <= (xtol + rtol |s|) / 2
_XTOL = 1e-14
_RTOL = 8.9e-16


def _brent(f, a, b, xtol, rtol, maxiter=100):
    """Root of f in [a, b] by Brent's method, f(a) and f(b) of opposite sign.

    A step-for-step port of scipy.optimize.brentq (scipy's Zeros/brentq.c),
    so it returns the same root bit for bit: inverse quadratic or secant
    steps when they shrink the bracket fast enough, bisection otherwise,
    and at least a step of (xtol + rtol |x|) / 2.  Raises ValueError when
    f(a) and f(b) share a sign or f returns NaN, RuntimeError after
    ``maxiter`` iterations.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:             # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


# einstein_sync solves through this module-level name, which
# perfbench/tracing.py wraps to count root solves per event
brentq = _brent


def einstein_sync(w, event):
    """Midpoint radar time of ``event`` as judged by world-line ``w``.

    Both legs fall strictly with s, so each has a root on the domain exactly
    when it is >= 0 at the first scan sample and <= 0 at the last; otherwise
    NoSolutionError names the missing leg ("emission", "absorption" or
    "both"), e.g. beyond a Rindler horizon.  Each root is bracketed by the
    scan cell where its leg changes sign.  Brent's method solves the null
    condition f = dt^2 - r^2 = <P - w, P - w> there when the scan shows f
    strictly changing sign across the cell, and the leg itself otherwise:
    then both legs change sign in one cell, as for an event on or near the
    world-line, or f is 0 at a cell end.
    Raises ValueError for an event that is not a finite 4-vector.

    The scan is sampled at ``w``'s first event and cached on it (see
    Worldline); a refusal is decided from the legs at its two end samples.
    """
    event = np.asarray(event, dtype=float)
    if event.shape != (4,):
        raise ValueError(f"event must be a 4-vector, got shape {event.shape}")
    e0, e1, e2, e3 = event.tolist()
    s_grid, (x0, x1, x2, x3), ends = w._scan

    def separation(p):   # P - p on Python floats
        p0, p1, p2, p3 = np.asarray(p, dtype=float).tolist()
        return e0 - p0, e1 - p1, e2 - p2, e3 - p3

    # the legs at the scan's first and last samples, with the bits of the
    # scan's own, decide a refusal before any arithmetic over the scan
    first, last = (_float_legs(*separation(p)) for p in ends)
    found = [first[k] >= 0.0 >= last[k] for k in (0, 1)]
    if not all(found):
        if not np.all(np.isfinite(event)):   # which fails a leg's test
            raise ValueError(f"event must be finite, got {event}")
        missing = "both" if not any(found) else ("emission" if found[1] else "absorption")
        raise NoSolutionError(f"{w.name}: no radar solution for event {event.tolist()} "
                              f"(missing {missing} leg on s in {w.domain})",
                              interval=w.domain, missing=missing)

    # the legs and interval of d = P - w(s) over the scan, in the operations
    # of minkowski.interval: one spatial sum r2 serves both legs and f
    dt = e0 - x0
    d1, d2, d3 = e1 - x1, e2 - x2, e3 - x3
    r2 = d1 * d1 + d2 * d2 + d3 * d3
    r = np.sqrt(r2)
    legs = dt - r, dt + r
    f = dt * dt - r2

    roots = []
    for k, leg in enumerate(legs):
        i = max(int(np.argmax(leg <= 0.0)) - 1, 0)   # the cell where the leg changes sign
        if f[i] * f[i + 1] < 0.0:
            # f = (dt - r)(dt + r) changes sign strictly, so the other leg keeps
            # its sign here.  Solving f keeps the former f-scan's roots bit for
            # bit, which perfbench's cli-batch reference needs while it compares
            # the round-off-sized radar residuals at 2e-8 relative.
            def g(s):
                return _float_interval(*separation(w.position(s)))
        else:
            def g(s, k=k):
                return _float_legs(*separation(w.position(s)))[k]
        roots.append(brentq(g, s_grid[i], s_grid[i + 1], _XTOL, _RTOL))
    emit, absorb = roots
    pe, pa = (np.asarray(w.position(s), dtype=float) for s in roots)
    # the scale max(1, |P - w|_inf) is squared by Python's ** (libm pow), which
    # is how the residuals are defined; x * x differs in the last bit about
    # once in 1,000
    residuals = tuple(abs(_float_interval(*d)) / max(1.0, *map(abs, d)) ** 2
                      for d in (separation(pe), separation(pa)))
    return RadarResult(0.5 * (emit + absorb), emit, absorb, pe, pa, residuals)


def radar_coordinates(emb, event):
    """Invert an embedding: solve z(tau, sigma) = event for (tau, sigma).

    Damped Newton iteration with the embedding Jacobian, started at
    (tau, sigma) = event; steps are halved (up to 30 times) until the
    residual decreases.  Convergence is declared when |z - event| <= 1e-9 *
    scale with scale = max(1, |event|), within 100 Newton steps.  Raises
    InversionError on failure and InversionError with a singular-chart
    message when the Jacobian degenerates, which signals an admissibility
    boundary of the chart; ValueError for an event that is not a 4-vector.
    """
    event = np.asarray(event, dtype=float)
    if event.shape != (4,):
        raise ValueError(f"event must be a 4-vector, got shape {event.shape}")
    coords = event.copy()
    scale = max(1.0, float(np.max(np.abs(event))))

    def residual(c):
        return emb(c[0], c[1:]) - event

    r = residual(coords)
    rnorm = math.sqrt(r.dot(r))   # np.linalg.norm's own arithmetic on a real 1-D array
    n_steps = 0
    while not rnorm <= 1e-9 * scale:   # a NaN residual is not converged
        if n_steps == 100:
            raise InversionError(
                f"{emb.name}: no convergence after 100 iterations "
                f"(residual {rnorm:.3e})",
                residual=float(rnorm),
            )
        n_steps += 1
        jac = emb.jacobian(coords[0], coords[1:])
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise InversionError(
                f"{emb.name}: singular chart Jacobian at {coords}; the event "
                "may lie on or beyond an admissibility boundary",
                residual=float(rnorm),
            ) from exc
        if not np.all(np.isfinite(step)):
            raise InversionError(
                f"{emb.name}: non-finite Newton step at {coords}",
                residual=float(rnorm),
            )
        lam = 1.0
        for _ in range(30):
            trial = coords - lam * step
            rt = residual(trial)
            rtnorm = math.sqrt(rt.dot(rt))
            if rtnorm < rnorm:
                coords, r, rnorm = trial, rt, rtnorm
                break
            lam *= 0.5
        else:
            raise InversionError(
                f"{emb.name}: damped Newton stalled at residual {rnorm:.3e}",
                residual=float(rnorm),
            )
    return float(coords[0]), coords[1:].copy()
