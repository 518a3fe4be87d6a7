"""Einstein clock synchronization and inversion of foliation charts.

An observer is a timelike world-line w(s) parameterized by proper length
(c times proper time).  The radar time an observer attributes to a distant
event P is the midpoint rule: send a light signal at w(s_emit), receive the
echo at w(s_absorb), and set

    tau_P = (s_emit + s_absorb) / 2.

Both legs are roots of the null condition f(s) = <P - w(s), P - w(s)> = 0,
located by scanning f for sign changes on the world-line's domain and
polishing each bracket with a safeguarded root solver.

radar_coordinates inverts a foliation chart: given an event x and an
embedding z, it solves z(tau, sigma) = x with a damped Newton iteration on
the 4x4 system, using the embedding Jacobian.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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


@dataclass
class Worldline:
    """Timelike world-line: position and unit four-velocity versus parameter.

    ``position`` and ``velocity`` accept a float or an array of parameter
    values s and return arrays of shape (..., 4).  The parameter is proper
    length, so the four-velocity must satisfy u0^2 - |u|^2 = 1 with u0 > 0;
    ``validate`` spot-checks that on 64 points of the domain.
    """

    position: callable
    velocity: callable
    domain: tuple
    name: str = "worldline"

    def validate(self):
        s = np.linspace(self.domain[0], self.domain[1], 64)
        u = np.asarray(self.velocity(s), dtype=float)
        norms = interval(u)
        if not np.all(u[..., 0] > 0.0):
            raise NonTimelikeError(
                f"{self.name}: four-velocity is not future pointing on the domain"
            )
        # u0^2 - |u|^2 cancels catastrophically for fast observers, so the
        # norm check has to be read relative to the magnitudes cancelled
        errs = np.abs(norms - 1.0) / np.maximum(1.0, u[..., 0] ** 2)
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
    u = np.concatenate(([np.sqrt(1.0 + h @ h)], h))

    def position(s):
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
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (4,))
        out[..., 0] = np.sinh(a * s) / a
        out[..., 1] = np.cosh(a * s) / a
        return out

    def velocity(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (4,))
        out[..., 0] = np.cosh(a * s)
        out[..., 1] = np.sinh(a * s)
        return out

    return Worldline(position, velocity, tuple(domain), name=f"rindler(a={a})").validate()


def worldline_from_callable(position, domain, velocity=None):
    """Wrap a position callable; the velocity defaults to central differences
    with step 1e-6 * max(1, |s|)."""

    def fd_velocity(s):
        s = np.asarray(s, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(s))
        return (np.asarray(position(s + h), dtype=float)
                - np.asarray(position(s - h), dtype=float)) / (2.0 * h)[..., None]

    return Worldline(position, velocity or fd_velocity, tuple(domain), name="custom").validate()


@dataclass
class RadarResult:
    tau: float            # radar time attributed to the event
    s_emit: float
    s_absorb: float
    emit_event: np.ndarray
    absorb_event: np.ndarray
    residuals: tuple      # null-condition residuals (emit, absorb), scaled


def _null_f(w, event):
    def f(s):
        d = event - w.position(s)
        return float(interval(d))

    return f


def einstein_sync(w, event, scan_points=512):
    """Midpoint radar time of ``event`` as judged by world-line ``w``.

    Scans the domain with ``scan_points`` samples for sign changes of the
    null condition, refines each bracket, and classifies roots into the
    emission leg (event on the future light cone of w(s)) and absorption leg
    (event on the past light cone).  Raises NoSolutionError when either leg
    is missing on the domain, e.g. beyond a Rindler horizon.
    """
    event = np.asarray(event, dtype=float)
    s_grid = np.linspace(w.domain[0], w.domain[1], int(scan_points))
    fvals = interval(event - np.asarray(w.position(s_grid), dtype=float))

    f = _null_f(w, event)
    roots = []
    sign_change = np.nonzero(np.diff(np.sign(fvals)) != 0)[0]
    for i in sign_change:
        a, b = s_grid[i], s_grid[i + 1]
        fa, fb = fvals[i], fvals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fb == 0.0:
            continue  # picked up by the next interval's left edge
        roots.append(brentq(f, a, b, xtol=1e-14, rtol=8.9e-16))
    if fvals[-1] == 0.0:
        roots.append(s_grid[-1])

    emit = absorb = None
    for s in roots:
        dt = event[0] - float(np.asarray(w.position(s))[0])
        if dt > 0.0 and (emit is None or s > emit):
            emit = s          # latest emission before the event
        if dt < 0.0 and (absorb is None or s < absorb):
            absorb = s        # earliest absorption after the event
    if emit is None or absorb is None:
        missing = "both" if emit is None and absorb is None else (
            "emission" if emit is None else "absorption")
        raise NoSolutionError(
            f"{w.name}: no radar solution for event {event} "
            f"(missing {missing} leg on s in {w.domain})",
            interval=w.domain,
            missing=missing,
        )

    pe = np.asarray(w.position(emit), dtype=float)
    pa = np.asarray(w.position(absorb), dtype=float)
    scale_e = max(1.0, float(np.max(np.abs(event - pe)))) ** 2
    scale_a = max(1.0, float(np.max(np.abs(event - pa)))) ** 2
    return RadarResult(
        tau=0.5 * (emit + absorb),
        s_emit=float(emit),
        s_absorb=float(absorb),
        emit_event=pe,
        absorb_event=pa,
        residuals=(abs(f(emit)) / scale_e, abs(f(absorb)) / scale_a),
    )


def radar_coordinates(emb, event):
    """Invert an embedding: solve z(tau, sigma) = event for (tau, sigma).

    Damped Newton iteration with the embedding Jacobian, started at
    (tau, sigma) = event; steps are halved (up to 30 times) until the
    residual decreases.  Convergence is declared when |z - event| <= 1e-9 *
    scale with scale = max(1, |event|), within 100 Newton steps.  Raises
    InversionError on failure and InversionError with a singular-chart
    message when the Jacobian degenerates, which signals an admissibility
    boundary of the chart.
    """
    event = np.asarray(event, dtype=float)
    coords = event.copy()
    scale = max(1.0, float(np.max(np.abs(event))))

    def residual(c):
        return emb(c[0], c[1:]) - event

    r = residual(coords)
    rnorm = np.linalg.norm(r)
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
            if np.linalg.norm(rt) < rnorm:
                coords, r, rnorm = trial, rt, np.linalg.norm(rt)
                break
            lam *= 0.5
        else:
            raise InversionError(
                f"{emb.name}: damped Newton stalled at residual {rnorm:.3e}",
                residual=float(rnorm),
            )
    return float(coords[0]), coords[1:].copy()
