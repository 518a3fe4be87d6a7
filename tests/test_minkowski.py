import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from instantform.foliation import rotation_from_euler_zyz
from instantform.minkowski import (
    boost_from_h,
    interval,
    is_lorentz,
    is_timelike_future,
    metric,
    minkowski_dot,
    rotation_to_lorentz,
    standard_boost,
    wigner_rotation,
)
from oracles import levi_civita4, outer_boost_from_h

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

vec3 = arrays(float, 3, elements=hst.floats(-2.0, 2.0))
angles = arrays(float, 3, elements=hst.floats(-np.pi, np.pi))


def test_metric_signatures():
    np.testing.assert_array_equal(metric(), ETA)
    np.testing.assert_array_equal(metric(sgn=-1), -ETA)
    with pytest.raises(ValueError):
        metric(sgn=2)


def test_minkowski_dot_matches_matrix_form():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    assert minkowski_dot(a, b) == pytest.approx(a @ ETA @ b, rel=0, abs=1e-15)
    assert minkowski_dot(a, b, sgn=-1) == pytest.approx(-(a @ ETA @ b))
    # broadcasting over a batch of vectors
    batch = rng.standard_normal((7, 4))
    np.testing.assert_allclose(
        minkowski_dot(batch, b), batch @ ETA @ b, atol=1e-14
    )


def test_interval_sign_convention():
    assert interval(np.array([2.0, 1.0, 0.0, 0.0])) == pytest.approx(3.0)
    assert interval(np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(-1.0)


def test_standard_boost_maps_rest_momentum():
    """L(p) must carry (Mc, 0) to p and be a Lorentz matrix."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        mc = rng.uniform(0.3, 4.0)
        p3 = rng.standard_normal(3) * 2.0
        p = np.concatenate(([np.hypot(mc, np.linalg.norm(p3))], p3))
        lam = standard_boost(p)
        assert is_lorentz(lam, tol=1e-12)
        np.testing.assert_allclose(lam @ np.array([mc, 0, 0, 0]), p, atol=1e-12)
        # symmetric (pure boost, no rotation part)
        np.testing.assert_allclose(lam, lam.T, atol=1e-13)


def test_boost_from_h_gamma_relation():
    h = np.array([0.3, -1.2, 0.4])
    lam = boost_from_h(h)
    gamma = np.sqrt(1.0 + h @ h)
    assert lam[0, 0] == pytest.approx(gamma, abs=1e-14)
    np.testing.assert_allclose(lam[0, 1:], h, atol=1e-14)
    assert is_lorentz(lam)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(arrays(float, hst.tuples(hst.integers(1, 4), hst.integers(1, 5), hst.just(3)),
              elements=hst.floats(-1e3, 1e3)))
def test_stacked_boost_from_h_equals_single_calls_bitwise_property(h):
    h[0, 0] = 0.0
    lam = boost_from_h(h)
    assert lam.shape == h.shape[:-1] + (4, 4)
    for idx in np.ndindex(h.shape[:-1]):
        assert lam[idx].tobytes() == boost_from_h(h[idx]).tobytes()
        assert lam[idx].tobytes() == outer_boost_from_h(h[idx]).tobytes()


@pytest.mark.parametrize("shape", [(), (2,), (4,), (5, 4), (3, 2)])
def test_boost_from_h_needs_last_axis_3(shape):
    with pytest.raises(ValueError):
        boost_from_h(np.zeros(shape))


def test_boost_inverse_is_opposite_h():
    rng = np.random.default_rng(23)
    h = rng.standard_normal(3)
    np.testing.assert_allclose(
        boost_from_h(h) @ boost_from_h(-h), np.eye(4), atol=1e-13
    )


def test_rotation_to_lorentz_embeds_so3():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(a)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    lam = rotation_to_lorentz(q)
    assert lam[0, 0] == 1.0
    np.testing.assert_array_equal(lam[0, 1:], 0.0)
    np.testing.assert_array_equal(lam[1:, 0], 0.0)
    assert is_lorentz(lam, tol=1e-12)


def test_wigner_rotation_is_rotation_and_composes():
    """R_W = L(lam p)^-1 lam L(p) must be a spatial rotation."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        mc = rng.uniform(0.5, 2.0)
        p3 = rng.standard_normal(3)
        p = np.concatenate(([np.hypot(mc, np.linalg.norm(p3))], p3))
        lam = boost_from_h(rng.standard_normal(3))
        rw = wigner_rotation(p, lam)
        assert rw.shape == (3, 3)
        np.testing.assert_allclose(rw @ rw.T, np.eye(3), atol=1e-11)
        assert np.linalg.det(rw) == pytest.approx(1.0, abs=1e-11)
        # consistency: lam L(p) == L(lam p) R_W as 4x4 matrices
        full = rotation_to_lorentz(rw)
        np.testing.assert_allclose(
            lam @ standard_boost(p), standard_boost(lam @ p) @ full, atol=1e-10
        )


def test_wigner_angle_orthogonal_boosts():
    """Closed form for two orthogonal boosts, exercised over rapidities."""
    from oracles import orthogonal_boost_wigner_tangent

    rng = np.random.default_rng(29)
    for _ in range(20):
        xi1, xi2 = rng.uniform(0.1, 2.5, size=2)
        mc = 1.3
        # particle boosted along x, then observer boost along y
        p = mc * np.array([np.cosh(xi1), np.sinh(xi1), 0.0, 0.0])
        lam = boost_from_h(np.array([0.0, np.sinh(xi2), 0.0]))
        rw = wigner_rotation(p, lam)
        angle = np.arctan2(rw[0, 1], rw[0, 0])
        expected = np.arctan(orthogonal_boost_wigner_tangent(xi1, xi2))
        assert abs(abs(angle) - abs(expected)) < 1e-12


@settings(derandomize=True, max_examples=100, deadline=None)
@given(vec3, vec3, hst.floats(0.0, np.pi), hst.floats(-np.pi, np.pi),
       hst.floats(-2.0, 2.0), hst.floats(-2.0, 2.0))
def test_boost_composition_and_inverse_property(h1, h2, polar, azimuth, xi1, xi2):
    """B(h) B(-h) = 1; B(h1) B(h2) = B(h12) (1 + R) with R a proper rotation;
    collinear rapidities add."""
    b1, b2 = boost_from_h(h1), boost_from_h(h2)
    np.testing.assert_allclose(b1 @ boost_from_h(-h1), np.eye(4), rtol=0, atol=1e-12)
    both = b1 @ b2
    assert is_lorentz(both, tol=1e-12 * np.max(np.abs(both)) ** 2)
    rot = boost_from_h(-both[1:, 0]) @ both
    np.testing.assert_allclose(rot[0], [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(rot[1:, 0], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rot[1:, 1:] @ rot[1:, 1:].T, np.eye(3), rtol=0, atol=1e-12)
    assert np.linalg.det(rot[1:, 1:]) == pytest.approx(1.0, abs=1e-12)

    n = np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                  np.cos(polar)])
    np.testing.assert_allclose(
        boost_from_h(np.sinh(xi1) * n) @ boost_from_h(np.sinh(xi2) * n),
        boost_from_h(np.sinh(xi1 + xi2) * n), rtol=1e-12, atol=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(vec3, hst.floats(0.5, 2.0), vec3, angles)
def test_wigner_rotation_is_proper_rotation_property(hp, mc, hl, euler):
    p = mc * np.concatenate(([np.sqrt(1.0 + hp @ hp)], hp))
    lam = boost_from_h(hl) @ rotation_to_lorentz(rotation_from_euler_zyz(euler))
    rw = wigner_rotation(p, lam)
    np.testing.assert_allclose(rw @ rw.T, np.eye(3), rtol=0, atol=1e-12)
    assert np.linalg.det(rw) == pytest.approx(1.0, abs=1e-12)


def test_levi_civita_contraction():
    eps = levi_civita4()
    assert eps[0, 1, 2, 3] == 1.0
    assert eps[1, 0, 2, 3] == -1.0
    # eps_mnrs eps^mnrs = -24 with one index family raised by eta
    raised = np.einsum("abcd,ae,bf,cg,dh->efgh", eps, ETA, ETA, ETA, ETA)
    assert np.einsum("abcd,abcd->", eps, raised) == pytest.approx(-24.0)


def test_timelike_future_classification():
    assert is_timelike_future(np.array([1.0, 0.2, 0.0, 0.0]))
    assert not is_timelike_future(np.array([-1.0, 0.2, 0.0, 0.0]))
    assert not is_timelike_future(np.array([1.0, 2.0, 0.0, 0.0]))
