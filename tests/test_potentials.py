import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from oracles import pi_gradient, rho_gradient


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


def _vectors(min_exp, max_exp):
    """3-vectors of norm 10**e, e in [min_exp, max_exp], in any direction."""
    unit = arrays(float, 3, elements=hst.floats(-1.0, 1.0, allow_subnormal=False)).filter(
        lambda v: float(np.linalg.norm(v)) > 1e-3)
    return hst.builds(lambda v, e: v / np.linalg.norm(v) * 10.0**e,
                      unit, hst.floats(min_exp, max_exp))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(potential=hst.sampled_from(["none", "coulomb", "coulomb+darwin"]),
       rho=_vectors(-50, 50), pi=_vectors(-50, 50),
       q=hst.floats(-10.0, 10.0), m1=hst.floats(0.1, 10.0), m2=hst.floats(0.1, 10.0),
       c=hst.floats(0.1, 100.0))
@example(potential="coulomb+darwin",
         rho=np.array([-2.039784159444598, -0.15065487334800212, 1.5499221114636805]),
         pi=np.array([-1.0007107398037367, 1.386952580132373, -1.6764072496746165]),
         q=-0.759725073568843, m1=1.8470841444709656, m2=0.5221383280699783, c=2.5)
def test_gradients_equal_the_numpy_oracle_bitwise(potential, rho, pi, q, m1, m2, c):
    """relative_potential_gradients, the float kernels evolve steps with,
    has the bits of the numpy gradients: each power through libm's pow as
    numpy's scalar power, pr**2 included.  |rho| and |pi| span 100 decades,
    where neither r^3, r^5 nor pr^2 underflows or overflows."""
    r, pr = float(np.linalg.norm(rho)), abs(float(_dot3(pi, rho)))
    assume(1e-300 < r**5 and r**5 < 1e300)
    assume(pr == 0.0 or 1e-300 < pr * pr < 1e300)
    args = (potential, q, m1, m2, c, rho, pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = rho_gradient(*args), pi_gradient(*args)
    got = relative_potential_gradients(*args)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("potential, r", [("coulomb", 1e-120), ("coulomb+darwin", 1e-100)])
def test_gradient_whose_power_underflows_raises(potential, r):
    """Above COINCIDENCE_TOL, r^3 (Coulomb) or r^5 (Darwin) may still
    underflow to 0: the float kernels raise ZeroDivisionError there, with no
    RuntimeWarning, where numpy would return inf or NaN."""
    rho, pi = np.array([r, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ArithmeticError):
            relative_potential_gradients(potential, -1.0, 1.0, 1.0, 1.0, rho, pi)
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(rho_gradient(potential, -1.0, 1.0, 1.0, 1.0, rho, pi)))
