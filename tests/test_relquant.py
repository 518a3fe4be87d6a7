import warnings

import numpy as np
import pytest
from scipy.fft import dst, irfft, next_fast_len, rfft

from instantform import relquant
from instantform.errors import NonConvergenceError
from instantform.relquant import (
    _RADIAL_TOL,
    _energy_scale,
    _lowest_eigenpairs,
    _next_fast_len,
    _orthonormal_rows,
    _potential_product,
    _radial_terms,
    _ritz_steps,
    _row_norms,
    _sine,
    _start_block,
    kinetic_dispersion,
    radial_grid,
    radial_levels,
)
from oracles import (
    build_radial_hamiltonian,
    cartesian_ground_state,
    dense_radial_levels,
    nonrel_fd_levels,
    qr_ritz_steps,
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


def _solver_tol(n_points, length, m1, m2, alpha, kinetic="salpeter", ell=0):
    """The residual tolerance radial_levels brings every level below."""
    _, tk, v = _radial_terms(n_points, length, m1, m2, alpha, 1.0, kinetic, ell, None)
    return (_RADIAL_TOL * (_energy_scale(m1 * m2 / (m1 + m2), 1.0, alpha, v) + tk[0])
            + 64 * np.finfo(float).eps * (tk[-1] + np.abs(v).max()))


# grids where the ell barrier dominates the potential: the committed spectrum
# grid, a strong-coupling grid, a heavy grid and the box of the README; their
# lowest levels can be a few 1e-8, where rtol 1e-9 is finer than round-off, so
# each level is held to the solver's own residual tolerance, absolute
# (Bauer-Fike bounds a Ritz value's distance to the spectrum by its residual)
@pytest.mark.parametrize("n_points, length, alpha, ell", [
    (1024, LENGTH, ALPHA, 6),
    (1024, LENGTH, ALPHA, 10),
    (512, 60.0, 0.3, 4),
    (512, 60.0, 0.3, 10),
    (2048, 2000.0, 0.05, 6),
    (300, LENGTH, ALPHA, 60),
])
def test_barrier_dominated_partial_waves_match_dense_oracle(n_points, length, alpha, ell):
    want = dense_radial_levels(n_points, length, M1, M2, alpha, ell=ell, n_levels=4)
    got = radial_levels(n_points, length, M1, M2, alpha, ell=ell, n_levels=4)
    tol = _solver_tol(n_points, length, M1, M2, alpha, ell=ell)
    assert np.max(np.abs(got - want)) <= tol


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
    for rows in (1, 2, 3, 4):
        x = rng.standard_normal((n, rows)).T
        want = _sine(v * _sine(x))
        got = apply_v(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(v).max() * np.abs(x).max()


def test_next_fast_len_is_scipys_real_fast_length():
    got = [_next_fast_len(n) for n in range(1, 20001)]
    assert got == [next_fast_len(n, real=True) for n in range(1, 20001)]


@pytest.mark.parametrize("n", [1, 2, 3, 16, 255, 256, 511, 1000, 2048])
def test_sine_is_the_orthonormal_dst1_and_its_own_inverse(n):
    """Including 2(n + 1) = 2 x 257 and 2 x 3 x 683, at n = 256 and 2048."""
    x = np.random.default_rng(n).standard_normal((n, 3)).T
    want = dst(x, type=1, norm="ortho", axis=-1)
    got = _sine(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.abs(want).max())
    np.testing.assert_allclose(_sine(got), x, rtol=0, atol=1e-14 * np.abs(x).max())
    np.testing.assert_array_equal(_sine(x[0]), got[0])


def _clustered_operator(n=300):
    """A diagonal whose three lowest entries lie within 2e-6, plus a rank-2
    term that mixes them with the rest of the spectrum."""
    diag = np.concatenate(([1.0, 1.0 + 1e-6, 1.0 + 2e-6], np.linspace(1.5, 40.0, n - 3)))
    low = np.random.default_rng(5).standard_normal((n, 2)) * 5e-4
    return np.diag(diag) + low @ low.T, diag


def test_lowest_eigenpairs_match_dense_eigh_on_a_clustered_operator():
    h, diag = _clustered_operator()
    x = _start_block(np.random.default_rng(6).standard_normal((h.shape[0], 4)).T)
    vals, rows = _lowest_eigenpairs(lambda u: u @ h,
                                    lambda u, active: u / (diag + 0.5),
                                    x, 1e-9, 200, "the clustered operator")
    vecs = rows.T
    want = np.linalg.eigh(h)[0][:4]
    np.testing.assert_allclose(vals, want, rtol=1e-10, atol=0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(4))) < 1e-12
    assert np.all(np.linalg.norm(h @ vecs - vecs * vals, axis=0) <= 1e-9)


def test_lowest_eigenpairs_refuses_a_short_iteration_budget():
    h, diag = _clustered_operator()
    x = _start_block(np.random.default_rng(6).standard_normal((h.shape[0], 4)).T)
    with pytest.raises(NonConvergenceError, match=r"residual of \S+ .* after 3 iterations"):
        _lowest_eigenpairs(lambda u: u @ h, lambda u, active: u / (diag + 0.5),
                           x, 1e-9, 3, "the clustered operator")


@pytest.mark.parametrize("n", [256, 2048])
def test_start_block_is_the_column_block_transposed_bit_for_bit(n):
    """Noise drawn as n x k and norms summed down its columns: the block of
    rows is the transpose of the block built from columns."""
    cols = np.exp(-np.outer(np.arange(1, n + 1), [0.01, 0.02, 0.04]))
    unit = cols / np.linalg.norm(cols, axis=0)
    noise = np.random.default_rng(7).standard_normal(cols.shape)
    want = np.linalg.qr(unit + 1e-3 / np.sqrt(n) * noise)[0]
    np.testing.assert_array_equal(_start_block(cols.T.copy()), want.T)


def test_orthonormal_directions_complement_the_basis():
    rng = np.random.default_rng(9)
    basis = np.linalg.qr(rng.standard_normal((200, 5)))[0].T
    w = rng.standard_normal((4, 200))
    q = _orthonormal_rows(w, _row_norms(w), basis)
    assert q.shape == (4, 200)
    assert np.max(np.abs(q @ q.T - np.eye(4))) < 1e-12
    assert np.max(np.abs(q @ basis.T)) < 1e-12
    # one active row is normalized
    q = _orthonormal_rows(w[1:2], _row_norms(w[1:2]), basis)
    assert q.shape == (1, 200)
    assert abs(q[0] @ q[0] - 1.0) < 1e-15
    assert np.max(np.abs(q @ basis.T)) < 1e-12
    # a row inside span(basis, other rows) is dropped, not normalized noise
    w[2] = 2.0 * w[0] - w[3] + rng.standard_normal(5) @ basis
    q = _orthonormal_rows(w, _row_norms(w), basis)
    assert q.shape == (3, 200)
    assert np.max(np.abs(q @ q.T - np.eye(3))) < 1e-12
    assert np.max(np.abs(q @ basis.T)) < 1e-12
    # a row left with 1e-11 of its norm is dropped, one left with 1e-9 kept
    seen = np.concatenate((basis, w[:2]))
    u = rng.standard_normal(200)
    for _ in range(2):
        u = u - np.linalg.lstsq(seen.T, u, rcond=None)[0] @ seen
    u /= np.linalg.norm(u)
    for left, rows in ((1e-11, 2), (1e-9, 3)):
        row = 2.0 * w[0] - w[1] + rng.standard_normal(5) @ basis
        v = np.stack((w[0], w[1], row + left * np.linalg.norm(row) * u))
        q = _orthonormal_rows(v, _row_norms(v), basis)
        assert q.shape == (rows, 200)
        assert np.max(np.abs(q @ q.T - np.eye(rows))) < 1e-12
        # each row is projected out of the basis and the kept rows together,
        # twice, so even the row left with 1e-9 of its norm keeps no more
        # than round-off of the basis
        assert np.max(np.abs(q @ basis.T)) < 1e-12


def test_ritz_steps_span_what_the_qr_route_spans():
    """P from the other eigenvectors y[:, k:] spans what the QR of [Y, Z]
    spans, compared by projectors on random Rayleigh-Ritz eigenvectors."""
    rng = np.random.default_rng(11)
    cases = [(k, m, rng.random(k) < 0.7)
             for k, m in [(1, 2), (3, 4), (3, 6), (3, 9), (4, 12), (6, 18)]
             for _ in range(25)]
    for k, m, active in cases:
        a = rng.standard_normal((m, m))
        y = np.linalg.eigh(a + a.T)[1]
        got, want = _ritz_steps(y, k, active), qr_ritz_steps(y, k, active)
        assert got.shape == want.shape
        assert np.max(np.abs(got @ got.T - np.eye(len(got))), initial=0) < 1e-13
        assert np.max(np.abs(got @ y[:, :k]), initial=0) < 1e-13
        assert np.max(np.abs(got.T @ got - want.T @ want)) < 1e-12
    # a Ritz vector inside X takes no step: dropped on both routes
    y = np.eye(6)
    y[1:, 1:] = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    active = np.ones(3, dtype=bool)
    got, want = _ritz_steps(y, 3, active), qr_ritz_steps(y, 3, active)
    assert got.shape == want.shape == (2, 6)
    assert np.max(np.abs(got.T @ got - want.T @ want)) < 1e-12


def test_qr_runs_only_at_restarts(monkeypatch):
    """One QR for the start block and one for each restart's block; the
    iterations between restarts take none."""
    qr, eigh = np.linalg.qr, np.linalg.eigh
    qr_shapes, eigh_sizes = [], []

    def counted_qr(a, *args, **kwargs):
        qr_shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        eigh_sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    # a light benchmark grid, and the committed grid at ell 6 that restarts
    for n, length, alpha, ell, k in ((256, 15.0 / (0.5 * 0.012), 0.012, 0, 3),
                                     (NPTS, LENGTH, ALPHA, 6, 4)):
        qr_shapes.clear()
        eigh_sizes.clear()
        radial_levels(n, length, M1, M2, alpha, ell=ell, n_levels=k)
        restarts = eigh_sizes.count(k)
        assert len(eigh_sizes) - restarts >= 10  # iterations
        assert qr_shapes == [(n, k)] * (1 + restarts)


def _out_of_place_product(v):
    """relquant._potential_product with its product formed out of place."""
    n = v.shape[0]
    size = next_fast_len(2 * n - 1, real=True)
    t = irfft(np.concatenate(([0.0], v, [0.0])), 2 * (n + 1))
    d = np.arange(size)
    even = rfft(t[np.minimum(d, size - d)]).real
    hankel = rfft(t[2:], size)

    def apply(coef):
        f = rfft(coef, size)
        return irfft(even * f - hankel * f.conj(), size)[..., :n]

    return apply


@pytest.mark.parametrize("n", [2, 3, 255, 256, 511, 1024, 2048, 4096])
def test_potential_product_in_place_is_bit_for_bit(n):
    rng = np.random.default_rng(n + 1)
    r = np.arange(1, n + 1) * 50.0 / (n + 1)
    v = -1.0 / np.sqrt(r**2 + 0.01) + rng.standard_normal(n)
    x = rng.standard_normal((n, 6)).T
    np.testing.assert_array_equal(_potential_product(v)(x), _out_of_place_product(v)(x))


def test_radial_levels_applies_no_sine_transform_per_product(monkeypatch):
    calls = []

    def counted(u):
        calls.append(u.shape)
        return _sine(u)

    monkeypatch.setattr(relquant, "_sine", counted)
    radial_levels(2048, LENGTH, M1, M2, ALPHA, n_levels=6)
    # the start block is written on sine coefficients, and H and the
    # preconditioner act there
    assert calls == []


# (n_points, ell, n_levels): the sampled rows' sine coefficients differ from
# the half-line transform by aliasing, which falls as (dr/a)^3 for s = 1 and
# 2 and faster for larger s (the odd extension of r^s exp(-r/(s a)) is
# smoother at r = 0), so s = 1 needs the finest grid; and by the tails beyond
# the box, which 200 Bohr radii make negligible for s <= 6
@pytest.mark.parametrize("n, ell, n_levels", [(8192, 0, 4), (4096, 1, 3), (1024, 2, 4)])
def test_start_rows_are_the_sine_transform_of_hydrogen_like_rows(monkeypatch, n, ell,
                                                                 n_levels):
    rows = []

    def recorded(x):
        rows.append(x)
        return _start_block(x)

    monkeypatch.setattr(relquant, "_start_block", recorded)
    m1, m2 = 1.0, 1.3
    bohr = (m1 + m2) / (m1 * m2 * ALPHA)
    radial_levels(n, 200.0 * bohr, m1, m2, ALPHA, ell=ell, n_levels=n_levels)
    r, _ = radial_grid(n, 200.0 * bohr)
    shell = ell + np.arange(1, n_levels + 1)[:, None]
    want = _sine(r**shell * np.exp(-r / (shell * bohr)))
    got = rows[0]
    assert got.shape == want.shape
    np.testing.assert_allclose(got / np.linalg.norm(got, axis=1)[:, None],
                               want / np.linalg.norm(want, axis=1)[:, None],
                               rtol=0, atol=1e-6)


# (n_points, ell, kinetic, m1, m2, alpha, box in Bohr radii of the level's
# shell, H products, vectors multiplied by H), as the spectrum benchmark draws
# its light and heavy grids; the exact counts pin the iteration path, so a
# change of layout or arithmetic that costs products fails here
@pytest.mark.parametrize("n, ell, kinetic, m1, m2, alpha, box, products, vectors", [
    (256, 0, "salpeter", 1.0, 1.3, 0.012, 15.0, 13, 31),
    (512, 1, "nonrelativistic", 0.7, 1.6, 0.008, 15.0, 17, 43),
    (2048, 0, "nonrelativistic", 1.2, 0.9, 0.015, 30.0, 15, 35),
    (2048, 1, "salpeter", 1.8, 0.6, 0.006, 30.0, 22, 54),
])
def test_radial_levels_keeps_its_iteration_path(monkeypatch, n, ell, kinetic, m1, m2,
                                                alpha, box, products, vectors):
    calls = []

    def counted(v):
        apply = _potential_product(v)

        def apply_counted(coef):
            calls.append(coef.size // n)
            return apply(coef)

        return apply_counted

    monkeypatch.setattr(relquant, "_potential_product", counted)
    mu = m1 * m2 / (m1 + m2)
    radial_levels(n, box * (1 + ell) ** 2 / (mu * alpha), m1, m2, alpha,
                  kinetic=kinetic, ell=ell, n_levels=3)
    assert (len(calls), sum(calls)) == (products, vectors)


def test_matrix_free_states_match_dense_oracle():
    vals, vecs, r = radial_levels(512, LENGTH, M1, M2, ALPHA, n_levels=5,
                                  return_states=True)
    want, want_vecs = dense_radial_levels(512, LENGTH, M1, M2, ALPHA, n_levels=5,
                                          return_states=True)
    np.testing.assert_allclose(vals, want, rtol=1e-9, atol=0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) < 1e-12
    # the same states up to sign
    assert np.all(np.abs(np.sum(vecs * want_vecs, axis=0)) > 1 - 1e-9)


def test_hydrogen_like_levels_converge_at_n4096():
    """A plain hydrogen-like grid, 30 Bohr radii at n = 4096, too large for a
    dense check in the suite: every residual, recomputed through two sine
    transforms rather than the solver's FFT pair, meets the solver's
    tolerance, the states are orthonormal, and the Salpeter levels lie below."""
    n, m1, m2 = 4096, 1.0, 1.3
    mu = m1 * m2 / (m1 + m2)
    args = (n, 30.0 / (mu * ALPHA), m1, m2, ALPHA)
    vals, vecs, _ = radial_levels(*args, kinetic="nonrelativistic", n_levels=3,
                                  return_states=True)
    _, tk, v = _radial_terms(*args, 1.0, "nonrelativistic", 0, None)
    tol = _solver_tol(*args, kinetic="nonrelativistic")
    coef = _sine(vecs.T)
    res = tk * coef + _sine(v * _sine(coef)) - vals[:, None] * coef
    assert np.all(np.linalg.norm(res, axis=1) <= tol)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-12
    sal = radial_levels(*args, kinetic="salpeter", n_levels=3)
    assert np.all(sal < vals)


def test_more_levels_than_points_raises():
    with pytest.raises(ValueError, match="n_levels"):
        radial_levels(16, 100.0, M1, M2, 0.1, n_levels=17)


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("length", [1e-300, 1e-160])
def test_vanishing_length_is_refused_without_numpy_warnings(length, ell):
    """r^2 and the softening^2 underflow to 0, so T overflows and V divides
    by 0 (and with the barrier adds -inf to +inf): FloatingPointError names
    the grid, and numpy warns of nothing."""
    with pytest.raises(FloatingPointError, match=f"length={length}"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        radial_levels(64, length, M1, M2, 0.5, ell=ell, n_levels=2)


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
