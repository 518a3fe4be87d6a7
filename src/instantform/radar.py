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
the instance, so later events take their separations from it in one
stacked subtraction.  Brent starts from the scan's values at the ends of
the cell, so the scan and Brent cannot disagree about the bracket's signs,
and evaluates on Python floats: the built-in observers carry a float form
``position.point(s)``, four Python floats with the bits of their array
path, and any other position is called and its array converted.  The
separation, f and the legs take the bits of ``minkowski.interval``.  On a
2-core Xeon (Python 3.11, numpy 2.4) an event on a scanned observer takes
about 41 us resolved on an inertial observer, 47 us on a Rindler one and
12 us refused (BENCH_kinematics.json, radar_bracket_values, 73, 72 and
12 us before the bracket values and the float form).  Radar time is
defined right up to the observer (Bini, Lusanna & Mashhoon, IJMP D 14,
1413 (2005)): an event on the world-line is its own radar time.

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

    A ``position`` may carry a float form ``position.point(s)``, as the
    built-in observers' do: for a Python float s, four Python floats equal
    bit for bit to ``position(np.array([s]))[0]``, which einstein_sync
    takes in place of ``position(s)`` on floats.  It is an attribute of the
    callable, not a field, so a position replaced by ``dataclasses.replace``
    or wrapped has none and cannot leave one out of date.
    """

    position: callable
    velocity: callable
    domain: tuple
    name: str = "worldline"

    @cached_property
    def _scan(self):
        """The scan parameters, the positions there as a read-only (4, n)
        array of columns x0..x3, and the positions at the domain's ends as
        Python floats, from one ``position`` call at the first event."""
        s_grid = np.linspace(self.domain[0], self.domain[1], _SCAN_POINTS)
        columns = np.asarray(self.position(s_grid), dtype=float).T.copy()
        s_grid.flags.writeable = columns.flags.writeable = False
        return s_grid, columns, (columns[:, 0].tolist(), columns[:, -1].tolist())

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
    (o0, o1, o2, o3), (v0, v1, v2, v3) = np.broadcast_to(origin, u.shape).tolist(), u.tolist()

    def position(s):
        s = np.asarray(s, dtype=float)
        return origin + np.multiply.outer(s, u)

    def point(s):   # position(s) on a Python float: the same products and sums
        return o0 + s * v0, o1 + s * v1, o2 + s * v2, o3 + s * v3

    position.point = point

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
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (4,))
        out[..., 0] = np.sinh(a * s) / a
        out[..., 1] = np.cosh(a * s) / a
        return out

    def point(s):   # position(s) on a Python float: numpy's sinh and cosh, as
        x = a * s   # libm's differ from them in the last bit
        return float(np.sinh(x)) / a, float(np.cosh(x)) / a, 0.0, 0.0

    position.point = point

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


def _not_nan(x, fx):
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN")
    return fx


def _brent(f, a, b, xtol, rtol, maxiter=100, *, fa, fb):
    """Root of f in [a, b] by Brent's method, f(a) and f(b) of opposite sign.

    A step-for-step port of scipy.optimize.brentq (scipy's Zeros/brentq.c),
    so it returns the same root bit for bit: inverse quadratic or secant
    steps when they shrink the bracket fast enough, bisection otherwise,
    and at least a step of (xtol + rtol |x|) / 2.  ``fa`` and ``fb`` are
    f(a) and f(b), which the caller holds and f is not called for:
    einstein_sync takes them from its scan, so Brent saves two evaluations
    and the bracket's signs are the scan's.  Raises ValueError when fa and
    fb share a sign or a value of f, given or returned, is NaN;
    RuntimeError after ``maxiter`` iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _not_nan(xpre, fa), _not_nan(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # past the NaN and zero tests, a sign is the test x < 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0.0) != (fcur < 0.0):
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
        fcur = _not_nan(xcur, f(xcur))
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
    world-line, or f is 0 at a cell end.  Either way it starts from the
    scan's values at the cell's ends.
    Raises ValueError for an event that is not a finite 4-vector.

    The scan is sampled at ``w``'s first event and cached on it (see
    Worldline); a refusal is decided from the legs at its two end samples.
    """
    event = np.asarray(event, dtype=float)
    if event.shape != (4,):
        raise ValueError(f"event must be a 4-vector, got shape {event.shape}")
    e0, e1, e2, e3 = event.tolist()
    s_grid, columns, ends = w._scan

    def separation(p):   # P - p on Python floats
        p0, p1, p2, p3 = p
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

    # d = P - w(s) over the scan in one subtraction, then the legs in the
    # operations of minkowski.interval: one spatial sum r2 serves both legs,
    # and f = dt^2 - r2 at a cell's ends
    d = event[:, None] - columns
    dt, sq = d[0], d[1:] * d[1:]
    r2 = sq[0] + sq[1] + sq[2]
    r = np.sqrt(r2)
    legs = dt - r, dt + r

    # Brent evaluates w on Python floats, through the observer's float form
    # when it has one
    point = getattr(w.position, "point", None)
    if point is None:   # a custom, replaced or wrapped position
        def point(s):
            return np.asarray(w.position(s), dtype=float).tolist()

    roots = []
    for k, leg in enumerate(legs):
        i = max(int((leg <= 0.0).argmax()) - 1, 0)   # the cell where the leg changes sign
        ta, tb = dt.item(i), dt.item(i + 1)
        fa, fb = ta * ta - r2.item(i), tb * tb - r2.item(i + 1)
        if fa * fb < 0.0:
            # f = (dt - r)(dt + r) changes sign strictly, so the other leg keeps
            # its sign here.  Solving f keeps the former f-scan's roots bit for
            # bit, which perfbench's cli-batch reference needs while it compares
            # the round-off-sized radar residuals at 2e-8 relative.
            def g(s):
                return _float_interval(*separation(point(s)))
        else:
            def g(s, k=k):
                return _float_legs(*separation(point(s)))[k]
            fa, fb = leg.item(i), leg.item(i + 1)
        # from the scan's values at the cell's ends: two evaluations fewer, and
        # the bracket's signs are the ones the scan chose the cell by
        roots.append(brentq(g, s_grid.item(i), s_grid.item(i + 1), _XTOL, _RTOL, fa=fa, fb=fb))
    emit, absorb = roots
    pe, pa = point(emit), point(absorb)
    # the scale max(1, |P - w|_inf) is squared by Python's ** (libm pow), which
    # is how the residuals are defined; x * x differs in the last bit about
    # once in 1,000
    residuals = tuple(abs(_float_interval(*d)) / max(1.0, *map(abs, d)) ** 2
                      for d in (separation(pe), separation(pa)))
    return RadarResult(0.5 * (emit + absorb), emit, absorb, np.array(pe), np.array(pa),
                       residuals)


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
