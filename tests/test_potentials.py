import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import array_shapes, arrays

from instantform.errors import SingularPotentialError
from instantform.potentials import (
    _dot3,
    coulomb_energy,
    darwin_energy,
    relative_potential_energy,
    relative_potential_gradients,
)


def test_coulomb_value_and_sign():
    r_vec = np.array([3.0, 0.0, 4.0])
    assert coulomb_energy(-1.0, r_vec) == pytest.approx(-1.0 / (4 * np.pi * 5.0))
    assert coulomb_energy(2.0, r_vec) > 0


def test_coincident_particles_raise():
    with pytest.raises(SingularPotentialError):
        coulomb_energy(-1.0, np.zeros(3))
    with pytest.raises(SingularPotentialError):
        darwin_energy(-1.0, 1.0, 1.0, 1.0, np.zeros(3), np.ones(3), np.ones(3))


def test_nan_separation_raises():
    """A NaN |r| is no separation: |r| <= tol is False for it, |r| > tol too."""
    with pytest.raises(SingularPotentialError, match="nan"):
        coulomb_energy(-1.0, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(SingularPotentialError):
        relative_potential_gradients("coulomb", -1.0, 1.0, 1.0, 1.0,
                                     np.array([0.0, np.nan, 0.0]), np.zeros(3))


def test_darwin_rest_frame_reduction():
    """Lab form with p1 = -p2 = pi equals the relative form."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = rng.standard_normal(3) * 2
        pi = rng.standard_normal(3)
        m1, m2, c = rng.uniform(0.5, 2.0, size=3)
        lab = darwin_energy(-1.0, m1, m2, c, rho, pi, -pi)
        rel = relative_potential_energy("coulomb+darwin", -1.0, m1, m2, c, rho, pi)
        assert rel - coulomb_energy(-1.0, rho) == pytest.approx(lab, rel=1e-12)


def test_darwin_scaling():
    # linear in q1q2, quadratic in momentum, falls like 1/(c^2 r)
    rho = np.array([1.0, 0.0, 0.0])
    pi = np.array([0.3, 0.4, 0.0])
    base = darwin_energy(-1.0, 1.0, 1.0, 1.0, rho, pi, -pi)
    assert darwin_energy(-2.0, 1.0, 1.0, 1.0, rho, pi, -pi) == pytest.approx(2 * base)
    assert darwin_energy(-1.0, 1.0, 1.0, 2.0, rho, pi, -pi) == pytest.approx(base / 4)
    assert darwin_energy(-1.0, 1.0, 1.0, 1.0, 2 * rho, pi, -pi) == pytest.approx(base / 2)
    assert darwin_energy(-1.0, 1.0, 1.0, 1.0, rho, 2 * pi, -2 * pi) == pytest.approx(4 * base)


@pytest.mark.parametrize("potential", ["coulomb", "coulomb+darwin"])
def test_gradients_match_finite_differences(potential):
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(15):
        rho = rng.standard_normal(3) + np.array([2.0, 0, 0])
        pi = rng.standard_normal(3)
        m1, m2 = rng.uniform(0.5, 2.0, size=2)
        c = 1.7
        q1q2 = -0.8

        def v(r, p):
            return relative_potential_energy(potential, q1q2, m1, m2, c, r, p)

        g_rho, g_pi = relative_potential_gradients(potential, q1q2, m1, m2, c, rho, pi)
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            assert g_rho[k] == pytest.approx(
                (v(rho + e, pi) - v(rho - e, pi)) / (2 * eps), abs=2e-7
            )
            assert g_pi[k] == pytest.approx(
                (v(rho, pi + e) - v(rho, pi - e)) / (2 * eps), abs=2e-7
            )


def test_potential_none_is_zero():
    assert relative_potential_energy("none", -1.0, 1, 1, 1, np.ones(3), np.ones(3)) == 0.0
    g_rho, g_pi = relative_potential_gradients("none", -1.0, 1, 1, 1, np.ones(3), np.ones(3))
    np.testing.assert_array_equal(g_rho, 0.0)
    np.testing.assert_array_equal(g_pi, 0.0)


def test_unknown_potential_rejected():
    with pytest.raises(ValueError):
        relative_potential_energy("yukawa", 1.0, 1, 1, 1, np.ones(3), np.ones(3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(array_shapes(min_dims=0, max_dims=2, max_side=4), hst.data())
def test_dot3_stack_rows_and_float_sum_agree_bitwise(stack, data):
    """_dot3 of a stack is each row's _dot3, and each row is the plain
    left-to-right sum on Python floats, bit for bit (signed zeros too)."""
    shape = stack + (3,)
    elements = hst.floats(-1e100, 1e100)  # no product overflows
    a = data.draw(arrays(float, shape, elements=elements))
    b = data.draw(arrays(float, shape, elements=elements))
    got = np.asarray(_dot3(a, b))
    assert got.shape == stack
    for idx in np.ndindex(stack):
        (a0, a1, a2), (b0, b1, b2) = a[idx].tolist(), b[idx].tolist()
        want = np.float64((a0 * b0 + a1 * b1) + a2 * b2).tobytes()
        assert got[idx].tobytes() == np.float64(_dot3(a[idx], b[idx])).tobytes() == want
    if stack:  # one 3-vector against the whole stack
        row = b[(0,) * len(stack)]
        assert np.asarray(_dot3(a, row)).tobytes() == np.array(
            [_dot3(a[idx], row) for idx in np.ndindex(stack)]).reshape(stack).tobytes()
