"""Independent expectations shared by the workloads' item checks.

Closed forms and oracles come from the acceptance suite's ``tests/oracles.py``
(loaded read-only, on first use) or are recomputed here by routes that share
no code with instantform.  Tolerances are the acceptance suite's.
"""

import csv
import functools
import importlib.util
import io
import json
import os

import numpy as np

from harness import ORACLES

TOL_INERTIAL_SYNC = 1e-10      # criterion 4
TOL_RINDLER_SYNC = 1e-9        # closed form atanh(t/x)/a, same solver tolerance
TOL_GEOMETRY = 1e-8            # criterion 1
TOL_CURVATURE = 1e-5           # criterion 3
TOL_INVERSION = 1e-8           # criterion 8
TOL_INVARIANTS = 1e-9          # criterion 5
TOL_TUBE = 1e-12               # criterion 5: distances <= bound * (1 + TOL_TUBE)
TOL_BOHR = 0.01                # criterion 9
TOL_ENERGY_DRIFT = 1e-4        # leapfrog at 400 steps per orbit: <= 2e-5 seen over 40 seeds
TOL_L_DRIFT = 1e-9             # |L| is a quadratic invariant of the scheme
TOL_CAUSAL = 1e-12             # reconstruct_worldlines' own causality margin


@functools.lru_cache(maxsize=1)
def oracles():
    spec = importlib.util.spec_from_file_location("instantform_test_oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# -- artifacts -------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not JSON")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def strict_csv(text):
    """(header, rows) of an RFC-4180 document with rectangular rows."""
    rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    if not rows:
        raise ValueError("empty CSV")
    header, body = rows[0], rows[1:]
    for k, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"row {k + 1} has {len(row)} cells, header has {len(header)}")
    return header, body


def read_artifacts(run_dir):
    """Parse every file of a run directory; (parsed by name, total bytes).

    Raises ValueError naming the first file that is not strict JSON or CSV.
    """
    parsed, total = {}, 0
    for name in sorted(os.listdir(run_dir)):
        path = os.path.join(run_dir, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        total += os.path.getsize(path)
        try:
            if name.endswith(".json"):
                parsed[name] = strict_json(text)
            elif name.endswith(".csv"):
                parsed[name] = strict_csv(text)
            else:
                raise ValueError("unexpected artifact type")
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    return parsed, total


def csv_column(table, name):
    header, rows = table
    k = header.index(name)
    return [row[k] for row in rows]


# -- closed forms ----------------------------------------------------------------


def free_invariants(masses, positions, momenta, x0=0.0):
    """(Mc, |S_bar|, X_E at lab time 0) of a free snapshot, c = 1.

    The spin is computed in the rest frame reached with the textbook boost
    formula, after re-synchronizing every straight world-line to rest time 0,
    as sum x_i x p_i (total momentum vanishes there, so the origin is
    irrelevant) -- not through the Pauli-Lubanski route the library takes.
    """
    m = np.asarray(masses, float)
    x = np.asarray(positions, float)
    p = np.asarray(momenta, float)
    e = np.sqrt(m**2 + np.sum(p**2, axis=1))
    p0, pv = e.sum(), p.sum(axis=0)
    mc = np.sqrt(p0**2 - pv @ pv)
    beta = pv / p0
    g = p0 / mc
    k = g * g / (g + 1.0)                     # (g - 1) / beta^2 without 0/0
    bx = x @ beta
    t_rest = g * (x0 - bx)
    x_rest = x + np.outer(k * bx - g * x0, beta)
    bp = p @ beta
    e_rest = g * (e - bp)
    p_rest = p + np.outer(k * bp - g * e, beta)
    x_sync = x_rest - (p_rest / e_rest[:, None]) * t_rest[:, None]
    spin = np.sum(np.cross(x_sync, p_rest), axis=0)
    x_e0 = (x.T @ e - x0 * pv) / p0
    return float(mc), float(np.linalg.norm(spin)), x_e0


def rindler_radar_time(accel, event):
    """atanh(t/x)/a: the two null roots are symmetric about the Rindler time,
    transverse offset included."""
    t, x = float(event[0]), float(event[1])
    return float(np.arctanh(t / x) / accel)


def rindler_wedge_event(rng, a):
    """Seeded event inside the Rindler wedge of acceleration ``a`` whose two
    null roots lie at least 0.3 from their midpoint (and inside s in +-10)."""
    while True:
        r, theta = rng.uniform(0.6, 2.5) / a, rng.uniform(-1.5, 1.5)
        phi = rng.uniform(0, 2 * np.pi)
        perp = rng.uniform(0.0, 1.5) / a * np.array([np.cos(phi), np.sin(phi)])
        arg = a * (r * r + perp @ perp + 1.0 / a**2) / (2.0 * r)
        if np.arccosh(arg) / a >= 0.3:
            return np.array([r * np.sinh(theta), r * np.cosh(theta), *perp])


def beyond_horizon(event):
    return not float(event[1]) > abs(float(event[0]))


def rigid_flagged(omega, tau_values, axis):
    """(expected condition-2 nodes, boundary nodes) for rigid rotation:
    flagged exactly where omega*rho >= c (criterion 2)."""
    flagged, boundary = set(), set()
    for tau in tau_values:
        for sa in axis:
            for sb in axis:
                margin = 1.0 - (omega * np.hypot(sa, sb)) ** 2
                for sc in axis:
                    node = (float(tau), float(sa), float(sb), float(sc))
                    if abs(margin) <= 1e-9:
                        boundary.add(node)
                    elif margin <= 0:
                        flagged.add(node)
    return flagged, boundary


def grid_axes(tau_min, tau_max, n_tau, extent, n_sigma):
    taus = (np.array([0.5 * (tau_min + tau_max)]) if n_tau == 1
            else np.linspace(tau_min, tau_max, n_tau))
    return taus, np.linspace(-extent, extent, n_sigma)


def compare_flagged(got, omega, grid):
    """Reason string when the flagged node set differs from omega*rho >= c."""
    want, boundary = rigid_flagged(omega, *grid_axes(*grid))
    got = set(got) - boundary
    if got != want:
        return (f"tolerance: rigid verdicts differ from omega*rho >= c "
                f"({len(got - want)} false positives, {len(want - got)} false negatives)")
    return None


def causal_segments(events):
    """True when every consecutive pair of events is timelike or null."""
    d = np.diff(np.asarray(events, float), axis=0)
    return bool(np.all(d[:, 0] ** 2 - np.sum(d[:, 1:] ** 2, axis=1) >= -TOL_CAUSAL))


def relative_drift(values):
    values = np.asarray(values, float)
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


def circular_momentum(m1, m2, alpha, radius):
    """|pi| of a circular relativistic Coulomb orbit (bisection, numpy only):
    k^2 (1/E1 + 1/E2) = alpha / r."""
    lo, hi = 0.0, 10.0
    for _ in range(200):
        k = 0.5 * (lo + hi)
        f = k * k * (1.0 / np.hypot(m1, k) + 1.0 / np.hypot(m2, k)) - alpha / radius
        lo, hi = (k, hi) if f < 0 else (lo, k)
    return 0.5 * (lo + hi)


def bound_state(rng):
    """Seeded bound two-body relative state, numpy only.

    Returns (m1, m2, q1q2, rho0, pi0, period) with pi0 perpendicular to rho0
    and |pi0| a fraction of the circular-orbit momentum, so orbits stay
    elliptic and far from collision.
    """
    m1, m2 = rng.uniform(0.5, 2.0, 2)
    q1q2 = -rng.uniform(1.0, 3.0)
    alpha = -q1q2 / (4.0 * np.pi)
    r0 = rng.uniform(0.8, 1.5)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v = np.cross(u, rng.normal(size=3))
    v /= np.linalg.norm(v)
    k0 = circular_momentum(m1, m2, alpha, r0)
    period = 2 * np.pi * r0 / (k0 * (1 / np.hypot(m1, k0) + 1 / np.hypot(m2, k0)))
    return (float(m1), float(m2), float(q1q2), r0 * u,
            rng.uniform(0.85, 1.1) * k0 * v, float(period))
