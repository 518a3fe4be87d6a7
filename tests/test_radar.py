import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy.optimize import brentq

from instantform.errors import NoSolutionError, NonTimelikeError
from instantform.radar import (
    _brent,
    einstein_sync,
    inertial_worldline,
    radar_coordinates,
    rindler_worldline,
    worldline_from_callable,
)
from oracles import inertial_sync_closed_form


def test_inertial_sync_matches_projection():
    """Radar midpoint time == projection onto the observer 4-velocity."""
    rng = np.random.default_rng(101)
    for _ in range(80):
        origin = rng.standard_normal(4)
        h = 1.5 * rng.standard_normal(3)
        w = inertial_worldline(origin, h)
        event = origin + 4.0 * rng.standard_normal(4)
        res = einstein_sync(w, event)
        want = inertial_sync_closed_form(origin, h, event)
        assert res.tau == pytest.approx(want, abs=1e-10)
        # both legs land back on the light cone of the event
        for leg in (res.emit_event, res.absorb_event):
            d = event - leg
            assert d[0] ** 2 - d[1:] @ d[1:] == pytest.approx(0.0, abs=1e-9)
        assert res.s_emit <= res.tau <= res.s_absorb


def test_sync_residuals_are_small():
    w = inertial_worldline(np.zeros(4), np.array([0.4, 0.0, -0.7]))
    res = einstein_sync(w, np.array([0.3, 1.2, -0.8, 0.5]))
    assert max(abs(r) for r in res.residuals) < 1e-10


def test_event_transverse_to_the_worldline():
    """An offset orthogonal to u leaves the radar time at the foot point."""
    h = np.array([0.6, 0.1, 0.0])
    w = inertial_worldline(np.array([1.0, 0.5, 0.0, 0.0]), h)
    u = np.concatenate(([np.sqrt(1 + h @ h)], h))
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    delta = np.array([0.3, -0.2, 0.5, 0.4])
    delta = delta - (u @ eta @ delta) * u  # now u.eta.delta == 0
    s0 = 0.8
    res = einstein_sync(w, w.position(s0) + delta)
    assert res.tau == pytest.approx(s0, abs=1e-9)


def test_rindler_interior_matches_arctanh():
    """Inside the right wedge, tau = arctanh(x0/x1)/a exactly."""
    rng = np.random.default_rng(7)
    a = 1.3
    w = rindler_worldline(a)
    for _ in range(60):
        x1 = rng.uniform(0.2, 6.0)
        x0 = rng.uniform(-0.95, 0.95) * x1
        event = np.array([x0, x1, rng.standard_normal(), rng.standard_normal()])
        res = einstein_sync(w, event)
        assert res.tau == pytest.approx(np.arctanh(x0 / x1) / a, abs=1e-9)


def test_rindler_horizon_events_have_no_solution():
    """Events with x1 <= |x0| never return a radar echo."""
    rng = np.random.default_rng(17)
    w = rindler_worldline(0.9)
    for _ in range(60):
        t = rng.uniform(-4.0, 4.0)
        x = abs(t) - rng.uniform(0.05, 3.0)  # strictly outside the wedge
        event = np.array([t, x, rng.standard_normal(), rng.standard_normal()])
        with pytest.raises(NoSolutionError):
            einstein_sync(w, event)


def test_rindler_radar_distance_closed_form():
    """Half the echo lapse equals ln(a^2 (x^2 - t^2)) / (2a) on the axis."""
    a = 1.0
    w = rindler_worldline(a)
    t, x = 0.8, 3.0
    res = einstein_sync(w, np.array([t, x, 0.0, 0.0]))
    dist = 0.5 * (res.s_absorb - res.s_emit)
    assert dist == pytest.approx(np.log(a * a * (x * x - t * t)) / (2 * a), abs=1e-9)
    # and the midpoint convention holds identically
    assert res.tau == pytest.approx(0.5 * (res.s_emit + res.s_absorb), abs=1e-12)


def test_worldline_from_callable_fd_velocity():
    h = np.array([0.2, -0.3, 0.1])
    u = np.concatenate(([np.sqrt(1 + h @ h)], h))
    w = worldline_from_callable(lambda s: np.multiply.outer(np.asarray(s), u), (-5, 5))
    np.testing.assert_allclose(w.velocity(0.7), u, atol=1e-6)
    res = einstein_sync(w, np.array([0.1, 0.4, 0.2, -0.3]))
    want = inertial_sync_closed_form(np.zeros(4), h, [0.1, 0.4, 0.2, -0.3])
    assert res.tau == pytest.approx(want, abs=1e-8)


def test_spacelike_curve_rejected():
    def pos(s):
        s = np.asarray(s, dtype=float)
        return np.stack([0.3 * s, 2.0 * s, 0 * s, 0 * s], axis=-1)

    with pytest.raises(NonTimelikeError):
        worldline_from_callable(pos, (-1.0, 1.0))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: rindler_worldline(200.0), id="rindler-cosh-overflow"),
    pytest.param(lambda: inertial_worldline(np.zeros(4), np.array([1e200, 0.0, 0.0])),
                 id="inertial-huge-h"),
])
def test_nonfinite_four_velocity_rejected(make):
    """An overflowing four-velocity fails validation instead of reaching brentq."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonTimelikeError, match="not finite"):
            make()


def test_event_outside_scan_domain():
    w = inertial_worldline(np.zeros(4), np.zeros(3), domain=(-1.0, 1.0))
    with pytest.raises(NoSolutionError):
        einstein_sync(w, np.array([0.0, 50.0, 0.0, 0.0]))


def test_radar_coordinates_inverts_embedding():
    """radar_coordinates must recover (tau, sigma) for surface events."""
    from instantform.foliation import make_rotating_embedding, tilted_embedding

    rng = np.random.default_rng(23)
    for emb in (tilted_embedding(0.3),
                make_rotating_embedding("differential", omega=0.7, r0=1.0)):
        for _ in range(10):
            tau = float(rng.uniform(-1.0, 1.0))
            sigma = rng.uniform(-1.5, 1.5, size=3)
            event = emb(tau, sigma)
            got_tau, got_sigma = radar_coordinates(emb, event)
            assert got_tau == pytest.approx(tau, abs=1e-8)
            np.testing.assert_allclose(got_sigma, sigma, atol=1e-8)


def test_static_observer_resolves_event_with_both_roots_in_one_cell():
    """Both null roots of an event 0.1 from a static observer fall inside one
    scan cell (width 200/511); the radar time is still t, the legs t -/+ 0.1."""
    w = inertial_worldline(np.zeros(4), np.zeros(3))
    res = einstein_sync(w, np.array([0.0, 0.1, 0.0, 0.0]))
    assert res.tau == pytest.approx(0.0, abs=1e-12)
    assert res.s_emit == pytest.approx(-0.1, abs=1e-12)
    assert res.s_absorb == pytest.approx(0.1, abs=1e-12)


def _solve(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hst.lists(hst.floats(-3.0, 3.0), min_size=4, max_size=4),
       hst.floats(0.1, 8.0), hst.floats(-4.0, 4.0), hst.floats(1e-3, 5.0),
       hst.sampled_from([(1e-14, 8.9e-16), (2e-12, 4 * np.finfo(float).eps), (1e-6, 1e-9)]),
       hst.sampled_from([3, 100]))
def test_brent_is_scipy_brentq_bit_for_bit(coef, freq, a, width, tols, maxiter):
    """Same root as scipy.optimize.brentq, or the same error after too few
    iterations, on smooth functions: a cubic plus a sine over a bracket."""
    c0, c1, c2, c3 = coef

    def f(x):
        return c0 + c1 * x + c3 * x**3 + c2 * math.sin(freq * x)

    assume(math.copysign(1.0, f(a)) != math.copysign(1.0, f(a + width)))
    xtol, rtol = tols
    want = _solve(brentq, f, a, a + width, xtol=xtol, rtol=rtol, maxiter=maxiter)
    got = _solve(_brent, f, a, a + width, xtol, rtol, maxiter)
    assert got == want
    if isinstance(want, float):
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_brent_refuses_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, 8.9e-16)
    with pytest.raises(ValueError, match="different signs"):
        _brent(lambda x: -1.0 - x * x, 0.0, 2.0, 1e-14, 8.9e-16)
