import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from instantform.errors import InversionError, NoSolutionError, NonTimelikeError
from instantform.minkowski import interval
from instantform.radar import (
    _brent,
    _float_interval,
    _float_legs,
    einstein_sync,
    inertial_worldline,
    radar_coordinates,
    rindler_worldline,
    worldline_from_callable,
)
from oracles import _legs, inertial_sync_closed_form, numpy_einstein_sync


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
    """An overflowing four-velocity fails validation instead of reaching
    brentq, without a numpy warning."""
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


@pytest.mark.parametrize("jacobian, message", [
    pytest.param(np.zeros((4, 4)), "singular chart Jacobian", id="singular"),
    pytest.param(np.full((4, 4), np.nan), "non-finite Newton step", id="non-finite"),
    # each step goes uphill, so all 30 halvings fail
    pytest.param(-np.eye(4), "damped Newton stalled", id="stalled"),
])
def test_radar_coordinates_refusals(jacobian, message):
    from instantform.foliation import Embedding

    emb = Embedding(lambda tau, sigma: np.concatenate((np.asarray(tau)[..., None], sigma),
                                                      axis=-1) + 1.0,
                    jacobian=lambda tau, sigma: jacobian, name="shifted")
    with pytest.raises(InversionError, match=message):
        radar_coordinates(emb, [0.5, 0.2, -0.3, 0.1])


def test_static_observer_resolves_event_with_both_roots_in_one_cell():
    """Both null roots of an event 0.1 from a static observer fall inside one
    scan cell (width 200/511); the radar time is still t, the legs t -/+ 0.1."""
    w = inertial_worldline(np.zeros(4), np.zeros(3))
    res = einstein_sync(w, np.array([0.0, 0.1, 0.0, 0.0]))
    assert res.tau == pytest.approx(0.0, abs=1e-12)
    assert res.s_emit == pytest.approx(-0.1, abs=1e-12)
    assert res.s_absorb == pytest.approx(0.1, abs=1e-12)


def test_event_on_the_worldline_is_its_own_radar_time():
    """An event on a static observer's world-line: both light legs have zero
    length, so tau = s_emit = s_absorb = the event's time."""
    w = inertial_worldline(np.zeros(4), np.zeros(3))
    res = einstein_sync(w, np.array([0.3, 0.0, 0.0, 0.0]))
    assert (res.tau, res.s_emit, res.s_absorb) == pytest.approx((0.3, 0.3, 0.3), abs=1e-14)


@pytest.mark.parametrize("i, side", [(0, 1.0), (7, 1.0), (300, 1.0), (300, -1.0), (511, -1.0)])
def test_leg_root_exactly_on_a_scan_sample(i, side):
    """One leg's root falls exactly on scan sample s_i (f = 0 there) and the
    other's 0.125 away, inside a neighbouring cell; each leg keeps its own
    root rather than both taking the sample."""
    w = inertial_worldline(np.zeros(4), np.zeros(3))
    s_i = np.linspace(-100.0, 100.0, 512)[i]
    event = w.position(s_i) + np.array([side * 0.0625, 0.0625, 0.0, 0.0])
    res = einstein_sync(w, event)
    tau = inertial_sync_closed_form(np.zeros(4), np.zeros(3), event)
    assert res.tau == pytest.approx(tau, abs=1e-12)
    assert res.s_emit == pytest.approx(s_i + min(0.0, side * 0.125), abs=1e-12)
    assert res.s_absorb == pytest.approx(s_i + max(0.0, side * 0.125), abs=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hst.lists(hst.floats(-3.0, 3.0), min_size=4, max_size=4),
       hst.lists(hst.floats(-2.0, 2.0), min_size=3, max_size=3).filter(
           lambda h: math.hypot(*h) > 1e-3),
       hst.floats(-100.0, 0.0), hst.sampled_from([1.0, 10.0, 200.0]),
       hst.sampled_from(["far", "near", "on"]), hst.floats(0.05, 0.95),
       hst.lists(hst.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_inertial_sync_matches_closed_form_legs(origin, h, lo, width, kind, frac, offset):
    """Far events, events within 1e-3 of the world-line and events on it: the
    radar time is the projection onto u, the legs are tau -/+ the rest-frame
    distance, and a refusal names exactly the legs outside the domain."""
    origin, h, offset = np.array(origin), np.array(h), np.array(offset)
    domain = (lo, lo + width)
    w = inertial_worldline(origin, h, domain=domain)
    s0 = lo + frac * width
    event = {"far": w.position(s0) + 8.0 * offset,
             "near": w.position(s0) + 1e-3 * offset,
             "on": w.position(s0)}[kind]
    tau = inertial_sync_closed_form(origin, h, event)
    u = w.velocity(0.0)
    # P - origin - tau u is orthogonal to u: its length is the rest-frame distance
    dist = math.sqrt(max(-float(interval(event - origin - tau * u)), 0.0))
    legs = {"emission": tau - dist, "absorption": tau + dist}
    assume(all(abs(s - end) > 1e-8 for s in legs.values() for end in domain))
    outside = [name for name, s in legs.items() if not lo < s < lo + width]
    if outside:
        with pytest.raises(NoSolutionError) as err:
            einstein_sync(w, event)
        assert err.value.missing == ("both" if len(outside) == 2 else outside[0])
        return
    res = einstein_sync(w, event)
    assert res.tau == pytest.approx(tau, abs=1e-10)
    assert res.s_emit == pytest.approx(legs["emission"], abs=1e-10)
    assert res.s_absorb == pytest.approx(legs["absorption"], abs=1e-10)


@pytest.mark.parametrize("domain", [(math.nan, 1.0), (5.0, -5.0), (0.0, math.inf)],
                         ids=["nan", "reversed", "infinite"])
@pytest.mark.parametrize("make", [
    pytest.param(lambda d: inertial_worldline(np.zeros(4), np.zeros(3), domain=d), id="inertial"),
    pytest.param(lambda d: rindler_worldline(1.0, domain=d), id="rindler"),
])
def test_worldline_refuses_a_non_finite_or_non_increasing_domain(make, domain):
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError, match="domain must be finite and increasing"):
            make(domain)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_event_is_an_error_not_a_refusal(bad):
    w = inertial_worldline(np.zeros(4), np.zeros(3))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="event must be finite"):
            einstein_sync(w, np.array([0.0, bad, 0.0, 0.0]))


def _circular_observer(radius, speed):
    """Observer on a circle in the (x, y) plane, parameterized by proper
    length, whose position callable returns Python lists."""
    gamma = 1.0 / math.sqrt(1.0 - speed * speed)
    omega = speed / radius

    def position(s):
        t = gamma * np.asarray(s, dtype=float)
        return np.stack([t, radius * np.cos(omega * t), radius * np.sin(omega * t), 0.0 * t],
                        axis=-1).tolist()

    return worldline_from_callable(position, (-20.0, 20.0))


def _sync_bits(sync, w, event):
    """Every number of a radar result as bytes, or the refusal's missing leg."""
    try:
        res = sync(w, event)
    except NoSolutionError as exc:
        return exc.missing
    return [np.asarray(x, dtype=float).tobytes()
            for x in (res.tau, res.s_emit, res.s_absorb, res.residuals,
                      res.emit_event, res.absorb_event)]


@pytest.mark.parametrize("kind", ["far", "near", "on", "static-near", "static-on",
                                  "rindler-inside", "rindler-beyond", "circle"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(hst.lists(hst.floats(-3.0, 3.0), min_size=4, max_size=4),
       hst.lists(hst.floats(-2.0, 2.0), min_size=3, max_size=3),
       hst.floats(0.05, 0.95), hst.floats(0.2, 2.0), hst.floats(0.1, 0.9),
       hst.lists(hst.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_float_objective_is_the_numpy_objective_bit_for_bit(kind, origin, h, frac, a, speed,
                                                           offset):
    """einstein_sync on a fresh observer, on the same observer after other
    events (its cached scan), and the numpy oracle, which samples the scan
    afresh and takes Brent's objective on 0-d numpy stacks, give the same
    bits: tau, both roots, both residuals, both events, and the same
    refusals.  Inertial observers with far events, events within 1e-3 of the
    world-line and on it, static ones (h = 0) near and on it; Rindler
    observers inside and beyond the horizon; a circling observer whose
    position returns lists."""
    origin, offset = np.array(origin), np.array(offset)
    if kind in ("far", "near", "on", "static-near", "static-on"):
        w = inertial_worldline(origin, np.zeros(3) if kind.startswith("static") else np.array(h),
                               domain=(-30.0, 30.0))
        s0 = w.position(-30.0 + 60.0 * frac)
        event = {"far": s0 + 8.0 * offset, "near": s0 + 1e-3 * offset,
                 "on": s0}[kind.removeprefix("static-")]
    elif kind == "rindler-inside":
        w = rindler_worldline(a)
        x1 = 0.2 + 6.0 * abs(offset[1])
        event = np.array([0.95 * (2.0 * frac - 1.0) * x1, x1, *(2.0 * offset[2:])])
    elif kind == "rindler-beyond":
        w = rindler_worldline(a)
        t = 4.0 * offset[0]
        event = np.array([t, abs(t) - 3.0 * frac, *(2.0 * offset[2:])])
    else:
        w = _circular_observer(a, speed)
        event = np.asarray(w.position(-20.0 + 40.0 * frac)) + 5.0 * offset
    fresh = _sync_bits(einstein_sync, w, event)
    for other in (event[::-1], event + 0.5, [0.0, 1e3, 0.0, 0.0]):   # some refused
        _sync_bits(einstein_sync, w, other)
    assert fresh == _sync_bits(einstein_sync, w, event) == _sync_bits(numpy_einstein_sync, w,
                                                                        event)


_FLOAT_STEPS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-300,
                0.3, -7.25, 1e300, -1e300]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: inertial_worldline([0.5, -1.0, 2.0, 0.25], [0.0, 0.0, 0.0]),
                 id="inertial-static"),
    pytest.param(lambda: inertial_worldline([0.5, -1.0, 2.0, 0.25], [1.3, -0.4, 2.0]),
                 id="inertial-moving"),
    pytest.param(lambda: rindler_worldline(0.7), id="rindler"),
    pytest.param(lambda: rindler_worldline(1.9, domain=(-3.0, 5.5)), id="rindler-domain"),
])
def test_float_position_is_the_array_position_bit_for_bit(make):
    """A float s, Python's or numpy's, takes the built-in observers' float
    branch, which gives position(np.array([s]))[0] bit for bit: signed zeros,
    subnormals, 1e+-300 (sinh and cosh overflow alike) and the domain ends."""
    w = make()
    for s in [*_FLOAT_STEPS, *w.domain]:
        with np.errstate(over="ignore"):
            want = w.position(np.array([s]))[0]
            for got in (w.position(s), w.position(np.float64(s))):
                assert got.shape == (4,) and got.tobytes() == want.tobytes()


def test_events_on_one_observer_scan_it_once():
    """The scan is lazy and belongs to the observer: N events, resolved and
    refused, make one array w.position call between them; every other call
    is one Brent step or one root on a float."""
    calls = []

    def position(s):
        calls.append(np.ndim(s))
        return base.position(s)

    base = inertial_worldline([0.0, 1.0, -1.0, 0.5], [0.3, 0.0, -0.2], domain=(-20.0, 20.0))
    w = dataclasses.replace(base, position=position)
    assert calls == [] and "_scan" not in vars(w)
    rng = np.random.default_rng(3)
    for event in [*rng.uniform(-3.0, 3.0, size=(6, 4)), [0.0, 60.0, 0.0, 0.0]]:
        _sync_bits(einstein_sync, w, event)
    assert calls.count(1) == 1 and set(calls) == {0, 1} and len(calls) > 20


def test_worldline_is_frozen_and_replace_gives_a_fresh_scan():
    """A Worldline's fields cannot be reassigned, so its cached scan cannot go
    stale; dataclasses.replace builds a new observer, which scans anew."""
    w = inertial_worldline(np.zeros(4), np.zeros(3), domain=(-4.0, 4.0))
    event = np.array([0.5, 1.0, 0.0, 0.0])
    res = einstein_sync(w, event)
    for field, value in [("domain", (-2.0, 2.0)), ("position", lambda s: s), ("name", "x")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(w, field, value)
    s_grid, columns, _ = w._scan
    assert not s_grid.flags.writeable and not any(x.flags.writeable for x in columns)
    assert all(x.flags.c_contiguous for x in columns)
    shifted = dataclasses.replace(w, position=lambda s: w.position(s) + [0.0, 1.0, 0.0, 0.0])
    narrow = dataclasses.replace(w, domain=(-2.0, 2.0))
    assert "_scan" not in vars(shifted) and "_scan" not in vars(narrow)
    # the event lies 1 from w, and on the shifted world-line
    assert (res.s_emit, res.s_absorb) == pytest.approx((-0.5, 1.5), abs=1e-12)
    assert einstein_sync(shifted, event).s_emit == pytest.approx(0.5, abs=1e-12)
    assert (narrow._scan[0][[0, -1]] == [-2.0, 2.0]).all()
    assert shifted._scan[1][1].tobytes() == (w._scan[1][1] + 1.0).tobytes()
    assert w._scan[0][[0, -1]].tolist() == [-4.0, 4.0]


@pytest.mark.parametrize("origin, h, event", [
    ([-0.15, 1.98, -1.8, -2.75], [-0.05, -0.82, 0.27], [16.86, 7.9, -12.66, 4.07]),
    ([-2.06, -1.77, -0.52, 2.84], [-1.69, 0.37, -1.47], [38.08, -30.09, 10.74, -23.08]),
    ([1.15, 2.16, -1.3, 2.36], [1.94, -0.08, 0.4], [13.21, 17.27, 1.81, 10.43]),
])
def test_residual_scale_is_squared_as_the_numpy_objective_squares_it(origin, h, event):
    """Events whose residual scale max(1, |P - w|_inf) squares to another
    last bit under x * x than under Python's **: the residuals still match."""
    w = inertial_worldline(np.array(origin), np.array(h), domain=(-30.0, 30.0))
    assert _sync_bits(einstein_sync, w, event) == _sync_bits(numpy_einstein_sync, w, event)


_SEPARATION_ENTRIES = hst.one_of(
    hst.floats(-1e3, 1e3), hst.sampled_from([0.0, -0.0]),
    # x * x and libm's pow(x, 2) round these squares differently
    hst.sampled_from([1.2399686513884438, -2.3367237832535963, 5.542406145046744]),
    hst.tuples(hst.floats(-10.0, 10.0), hst.sampled_from([1e-150, 1e150])).map(
        lambda t: t[0] * t[1]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(arrays(float, hst.tuples(hst.integers(1, 6), hst.just(4)), elements=_SEPARATION_ENTRIES))
def test_float_helpers_equal_interval_and_legs(d):
    """_float_interval and _float_legs of each row equal interval and _legs of
    the (n, 4) stack, C- or F-ordered, and of the row alone, bit for bit;
    signed zeros and entries near 1e+-150 included."""
    rows = d.tolist()
    want_f = np.array([_float_interval(*row) for row in rows])
    want_legs = np.array([_float_legs(*row) for row in rows]).T
    for stack in (d, np.asfortranarray(d)):
        assert interval(stack).tobytes() == want_f.tobytes()
        assert np.array(_legs(stack)).tobytes() == want_legs.tobytes()
    for row, f, legs in zip(d, want_f, want_legs.T):
        assert interval(row).tobytes() == f.tobytes()
        assert np.array(_legs(row)).tobytes() == legs.tobytes()


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
