import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft

from instantform import relquant
from instantform.errors import NonConvergenceError
from instantform.relquant import (
    _potential_product,
    _sine,
    kinetic_dispersion,
    radial_grid,
    radial_levels,
)
from oracles import (
    build_radial_hamiltonian,
    cartesian_ground_state,
    dense_radial_levels,
    nonrel_fd_levels,
)

# weak-coupling hydrogen-like setup shared by several tests
M1 = M2 = 1.0
MU = 0.5
ALPHA = 0.01
LENGTH = 8000.0
NPTS = 1024
BOHR1 = -MU * ALPHA**2 / 2.0


def test_radial_grid_is_uniform_interior():
    r, k = radial_grid(8, 9.0)
    np.testing.assert_allclose(r, np.arange(1, 9) * 1.0)
    np.testing.assert_allclose(k, np.arange(1, 9) * np.pi / 9.0)


def test_kinetic_dispersion_values():
    k = np.array([0.0, 0.3, 2.0])
    m1, m2, c = 1.0, 1.5, 2.0
    want = (c * np.hypot(m1 * c, k) + c * np.hypot(m2 * c, k)
            - (m1 + m2) * c**2)
    np.testing.assert_allclose(kinetic_dispersion(k, m1, m2, c), want, rtol=1e-14)
    mu = m1 * m2 / (m1 + m2)
    np.testing.assert_allclose(
        kinetic_dispersion(k, m1, m2, c, kind="nonrelativistic"),
        k**2 / (2 * mu), rtol=1e-14,
    )
    with pytest.raises(ValueError):
        kinetic_dispersion(k, m1, m2, c, kind="bogus")


def test_small_momentum_expansion_agrees():
    # salpeter -> nonrel as k/mc -> 0
    k = np.array([1e-4])
    sal = kinetic_dispersion(k, 1.0, 1.0, 1.0)
    nr = kinetic_dispersion(k, 1.0, 1.0, 1.0, kind="nonrelativistic")
    assert abs(sal[0] - nr[0]) < 1e-12 * nr[0] + 1e-16


def test_hamiltonian_is_symmetric():
    h, r = build_radial_hamiltonian(128, 200.0, 1.0, 2.0, 0.1)
    np.testing.assert_allclose(h, h.T, atol=0)
    assert r.shape == (128,)


def test_nonrel_ground_matches_bohr():
    levels = radial_levels(NPTS, LENGTH, M1, M2, ALPHA,
                           kinetic="nonrelativistic", n_levels=3)
    assert abs(levels[0] - BOHR1) / abs(BOHR1) < 0.01


def test_excited_levels_follow_balmer():
    levels = radial_levels(NPTS, LENGTH, M1, M2, ALPHA,
                           kinetic="nonrelativistic", n_levels=3)
    for i in (1, 2):
        target = BOHR1 / (i + 1) ** 2
        assert abs(levels[i] - target) / abs(target) < 0.02


def test_salpeter_strictly_below_nonrel():
    """Relativistic kinetic energy is pointwise smaller, so every level drops.

    Both spectra live in the same sine basis with the same softened
    potential; only the dispersion differs.
    """
    nonrel = radial_levels(NPTS, LENGTH, M1, M2, ALPHA,
                           kinetic="nonrelativistic", n_levels=4)
    sal = radial_levels(NPTS, LENGTH, M1, M2, ALPHA,
                        kinetic="salpeter", n_levels=4)
    assert np.all(sal < nonrel)


def test_fd_oracle_agrees_with_sine_basis():
    """Independent tridiagonal discretization lands on the same ground level."""
    dst = radial_levels(NPTS, LENGTH, M1, M2, ALPHA,
                        kinetic="nonrelativistic", n_levels=1)
    fd = nonrel_fd_levels(NPTS, LENGTH, MU, ALPHA, n_levels=1)
    assert abs(fd[0] - dst[0]) / abs(dst[0]) < 5e-3


def test_doubling_convergence_at_fixed_softening():
    eps = LENGTH / (4 * NPTS)
    e_n = radial_levels(NPTS, LENGTH, M1, M2, ALPHA, softening=eps, n_levels=1)
    e_2n = radial_levels(2 * NPTS, LENGTH, M1, M2, ALPHA, softening=eps,
                         n_levels=1)
    assert abs(e_2n[0] - e_n[0]) / abs(e_2n[0]) < 1e-3


def test_eigenvectors_orthonormal():
    vals, vecs, r = radial_levels(512, LENGTH, M1, M2, ALPHA, n_levels=5,
                                  return_states=True)
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8
    assert vals.shape == (5,)
    assert vecs.shape == (512, 5)


@pytest.mark.parametrize("n_points, length, alpha, kw", [
    pytest.param(2048, LENGTH, ALPHA, dict(n_levels=6), id="cli-defaults"),
    pytest.param(1024, LENGTH, ALPHA, dict(ell=2, n_levels=5), id="ell2"),
    pytest.param(2048, LENGTH, ALPHA, dict(ell=1, n_levels=3, kinetic="nonrelativistic"),
                 id="ell1-n2048"),
    pytest.param(2048, 100.0, 0.5, dict(softening=0.8, n_levels=2), id="strong-softened"),
    pytest.param(8, LENGTH, ALPHA, dict(n_levels=1), id="n8"),
    pytest.param(16, LENGTH, ALPHA, dict(n_levels=6), id="n16"),
    pytest.param(256, LENGTH, ALPHA, dict(n_levels=4), id="n256-prime-dst"),
    pytest.param(64, 50.0, -0.5, dict(n_levels=3), id="repulsive"),
    pytest.param(64, 50.0, 0.0, dict(n_levels=3, kinetic="nonrelativistic"), id="free"),
])
def test_matrix_free_levels_match_dense_oracle(n_points, length, alpha, kw):
    want = dense_radial_levels(n_points, length, M1, M2, alpha, **kw)
    if alpha <= 0:
        with pytest.warns(UserWarning):
            got = radial_levels(n_points, length, M1, M2, alpha, **kw)
    else:
        got = radial_levels(n_points, length, M1, M2, alpha, **kw)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n", [2, 3, 16, 128, 255, 256, 340, 384, 511, 512,
                               1000, 2048])
def test_potential_product_matches_two_sine_transforms(n):
    """One zero-padded FFT pair applies diag(V) in the sine basis.

    2(n + 1) is smooth for some n and has a large prime factor for others
    (514 = 2 x 257, 4098 = 2 x 3 x 683); the FFT length never depends on it.
    """
    rng = np.random.default_rng(n)
    r = np.arange(1, n + 1) * 50.0 / (n + 1)
    v = (-1.0 / np.sqrt(r**2 + 0.01) + 3.0 / (r**2 + 0.01)
         + rng.standard_normal(n))
    apply_v = _potential_product(v)
    for columns in (1, 2, 3, 4):
        x = rng.standard_normal((n, columns))
        want = _sine(v[:, None] * _sine(x))
        got = apply_v(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(v).max() * np.abs(x).max()


def _out_of_place_product(v):
    """relquant._potential_product with its product formed out of place."""
    n = v.shape[0]
    size = next_fast_len(2 * n - 1, real=True)
    t = irfft(np.concatenate(([0.0], v, [0.0])), 2 * (n + 1))
    d = np.arange(size)
    even = rfft(t[np.minimum(d, size - d)]).real[:, None]
    hankel = rfft(t[2:], size)[:, None]

    def apply(coef):
        f = rfft(coef, size, axis=0)
        return irfft(even * f - hankel * f.conj(), size, axis=0)[:n]

    return apply


@pytest.mark.parametrize("n", [2, 3, 255, 256, 511, 1024, 2048, 4096])
def test_potential_product_in_place_is_bit_for_bit(n):
    rng = np.random.default_rng(n + 1)
    r = np.arange(1, n + 1) * 50.0 / (n + 1)
    v = -1.0 / np.sqrt(r**2 + 0.01) + rng.standard_normal(n)
    x = rng.standard_normal((n, 6))
    np.testing.assert_array_equal(_potential_product(v)(x), _out_of_place_product(v)(x))


def test_radial_levels_applies_no_sine_transform_per_product(monkeypatch):
    calls = []

    def counted(u):
        calls.append(u.shape)
        return _sine(u)

    monkeypatch.setattr(relquant, "_sine", counted)
    radial_levels(2048, LENGTH, M1, M2, ALPHA, n_levels=6)
    # the start block only, however many products LOBPCG took
    assert len(calls) <= 2


def test_matrix_free_states_match_dense_oracle():
    vals, vecs, r = radial_levels(512, LENGTH, M1, M2, ALPHA, n_levels=5,
                                  return_states=True)
    want, want_vecs = dense_radial_levels(512, LENGTH, M1, M2, ALPHA, n_levels=5,
                                          return_states=True)
    np.testing.assert_allclose(vals, want, rtol=1e-9, atol=0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) < 1e-12
    # the same states up to sign
    assert np.all(np.abs(np.sum(vecs * want_vecs, axis=0)) > 1 - 1e-9)


def test_more_levels_than_points_raises():
    with pytest.raises(ValueError, match="n_levels"):
        radial_levels(16, 100.0, M1, M2, 0.1, n_levels=17)


def test_ell_one_ground_near_bohr_n2():
    levels = radial_levels(NPTS, LENGTH, M1, M2, ALPHA,
                           kinetic="nonrelativistic", ell=1, n_levels=1)
    target = BOHR1 / 4
    assert abs(levels[0] - target) / abs(target) < 0.05


def test_nonpositive_alpha_warns_not_raises():
    with pytest.warns(UserWarning):
        h, _ = build_radial_hamiltonian(64, 50.0, 1.0, 1.0, -0.5)
    # repulsive spectrum is entirely positive
    assert np.linalg.eigvalsh(h)[0] > 0
    with pytest.warns(UserWarning):
        radial_levels(64, 50.0, 1.0, 1.0, 0.0, n_levels=1)


def test_cartesian_cross_check_both_modes():
    """3-d grid vs radial reduction at strong coupling, both dispersions.

    The box edge (52) is chosen so the exponential tail is negligible at
    the faces; agreement at 3e-3 and matching relativistic shifts mean the
    radial reduction and the full 3-d operator describe the same problem.
    """
    alpha, eps = 0.5, 0.8
    rad_nr = radial_levels(2048, 100.0, M1, M2, alpha,
                           kinetic="nonrelativistic", softening=eps,
                           n_levels=1)[0]
    rad_s = radial_levels(2048, 100.0, M1, M2, alpha, kinetic="salpeter",
                          softening=eps, n_levels=1)[0]
    cart_nr = cartesian_ground_state(64, 52.0, M1, M2, alpha,
                                     kinetic="nonrelativistic",
                                     softening=eps, tol=1e-7)[0]
    cart_s = cartesian_ground_state(64, 52.0, M1, M2, alpha,
                                    kinetic="salpeter",
                                    softening=eps, tol=1e-7)[0]
    assert abs(cart_nr - rad_nr) / abs(rad_nr) < 3e-3
    assert abs(cart_s - rad_s) / abs(rad_s) < 3e-3
    shift_rad = rad_s - rad_nr
    shift_cart = cart_s - cart_nr
    assert shift_rad < 0  # the relativistic level sits deeper
    assert abs(shift_cart - shift_rad) / abs(shift_rad) < 0.05


def test_cartesian_deterministic():
    a = cartesian_ground_state(24, 30.0, 1.0, 1.0, 0.5, tol=1e-8)[0]
    b = cartesian_ground_state(24, 30.0, 1.0, 1.0, 0.5, tol=1e-8)[0]
    assert a == b


def test_cartesian_nonconvergence_raises():
    with pytest.raises(NonConvergenceError):
        cartesian_ground_state(24, 30.0, 1.0, 1.0, 0.5, maxiter=2)
