import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from instantform import foliation
from instantform.foliation import (
    GAMMA_DEFAULT,
    Embedding,
    GridSpec,
    check_admissibility,
    euler_zyz_from_rotation,
    extrinsic_curvature,
    identity_embedding,
    induced_geometry,
    make_rotating_embedding,
    metric_eigendecomposition,
    metric_from_eigendata,
    rotation_from_euler_zyz,
    tilted_embedding,
)
from oracles import ETA, _cofactor_normal, pointwise_admissibility, stencil_extrinsic_curvature


def all_families():
    return [
        identity_embedding(),
        tilted_embedding(0.4),
        tilted_embedding(np.array([0.2, -0.5, 0.1])),
        make_rotating_embedding("rigid", omega=0.35),
        make_rotating_embedding("differential", omega=0.8, r0=1.2),
    ]


def test_identity_embedding_is_minkowski():
    emb = identity_embedding()
    geo = induced_geometry(emb, 0.7, np.array([0.3, -1.0, 2.0]))
    np.testing.assert_array_equal(geo.g4, ETA)
    assert geo.lapse == 1.0
    np.testing.assert_array_equal(geo.shift_cov, 0.0)
    np.testing.assert_array_equal(geo.normal, [1.0, 0.0, 0.0, 0.0])


def test_lapse_shift_metric_identities():
    """Internal consistency of every geometry output, both signatures.

    The lapse and shift are computed from the covariant normal (cofactor
    route) while g4 comes straight from the Jacobian, so these identities
    genuinely cross two code paths:

      sgn g_tt  = N^2 - N_r N^r
      g_tr      = -sgn N_r
      g_rs      = -sgn h_rs        (h the positive spatial metric)
      n . dz/dsigma^r = 0,  n . n = 1  (eta inner products)
    """
    rng = np.random.default_rng(41)
    for emb in all_families():
        for _ in range(8):
            tau = float(rng.uniform(-1.5, 1.5))
            sigma = rng.uniform(-1.8, 1.8, size=3)
            for sgn in (1, -1):
                geo = induced_geometry(emb, tau, sigma, sgn=sgn)
                n2 = geo.lapse**2 - geo.shift_cov @ geo.shift_con
                assert sgn * geo.g4[0, 0] == pytest.approx(n2, abs=1e-10)
                np.testing.assert_allclose(
                    geo.g4[0, 1:], -sgn * geo.shift_cov, atol=1e-10
                )
                np.testing.assert_allclose(
                    geo.g4[1:, 1:], -sgn * geo.g3, atol=1e-10
                )
                jac = emb.jacobian(tau, sigma)
                for r in range(3):
                    assert geo.normal @ ETA @ jac[:, r + 1] == pytest.approx(
                        0.0, abs=1e-10
                    )
                assert geo.normal @ ETA @ geo.normal == pytest.approx(
                    1.0, abs=1e-10
                )
                assert geo.normal[0] > 0  # future pointing


def test_fd_jacobian_agrees_with_analytic():
    emb = make_rotating_embedding("differential", omega=0.9, r0=0.8)
    twin = Embedding(lambda t, s: emb(t, s))
    tau, sigma = 0.4, np.array([0.7, -0.3, 0.5])
    np.testing.assert_allclose(
        induced_geometry(twin, tau, sigma).g4,
        induced_geometry(emb, tau, sigma).g4,
        atol=1e-7,
    )


def test_embedding_batches_match_points():
    """A batch of points gives exactly the stacked one-point results."""
    rng = np.random.default_rng(43)
    tau = rng.uniform(-1.5, 1.5, size=(2, 3))
    sigma = rng.uniform(-1.8, 1.8, size=(2, 3, 3))
    differential = make_rotating_embedding("differential", omega=0.9, r0=0.8)
    for emb in all_families() + [Embedding(lambda t, s: differential(t, s))]:
        z, jac = emb(tau, sigma), emb.jacobian(tau, sigma)
        assert z.shape == (2, 3, 4) and jac.shape == (2, 3, 4, 4)
        for idx in np.ndindex(tau.shape):
            np.testing.assert_array_equal(z[idx], emb(tau[idx], sigma[idx]))
            np.testing.assert_array_equal(jac[idx], emb.jacobian(tau[idx], sigma[idx]))
    with pytest.raises(ValueError):
        identity_embedding()(tau, sigma[0])


def test_rigid_rotation_node_classification_is_exact():
    """Condition 2 must fail exactly where omega * rho_perp >= c.

    Every grid node is classified independently from the closed form and
    compared against the reported violations, no tolerance games: nodes
    within 1e-9 of the critical cylinder would be excluded, but this grid
    has none.
    """
    omega = 0.8
    emb = make_rotating_embedding("rigid", omega=omega)
    grid = GridSpec(-1.0, 1.0, 5, 2.0, 9)
    rep = check_admissibility(emb, grid)
    assert not rep.passed
    assert rep.conditions_passed[0] and not rep.conditions_passed[1]

    flagged = {
        (v.tau, tuple(v.sigma)) for v in rep.violations if v.condition == 2
    }
    n_boundary = 0
    for tau in grid.tau_values():
        for sa in grid.sigma_axis():
            for sb in grid.sigma_axis():
                for sc in grid.sigma_axis():
                    margin = 1.0 - (omega * np.hypot(sa, sb)) ** 2
                    if abs(margin) <= 1e-9:
                        n_boundary += 1
                        continue
                    expect = margin <= 0.0
                    got = (tau, (sa, sb, sc)) in flagged
                    assert got == expect, (tau, sa, sb, sc, margin)
    assert n_boundary == 0
    assert len(flagged) > 0


def test_differential_rotation_is_admissible():
    emb = make_rotating_embedding("differential", omega=1.4, r0=1.0)
    rep = check_admissibility(emb, GridSpec(-1.0, 1.0, 5, 3.0, 9))
    assert rep.passed
    assert rep.conditions_passed == (True, True, True)
    assert rep.violations == []


def test_differential_rotation_preserves_volume():
    """The smooth rotation profile has unit conformal factor everywhere."""
    emb = make_rotating_embedding("differential", omega=1.1, r0=0.9)
    rng = np.random.default_rng(7)
    for _ in range(12):
        geo = induced_geometry(
            emb, float(rng.uniform(-1, 1)), rng.uniform(-2, 2, size=3)
        )
        data = metric_eigendecomposition(geo.g3)
        assert data.phi_tilde == pytest.approx(1.0, abs=1e-12)


def test_extrinsic_curvature_identity_family_is_zero():
    emb = identity_embedding()
    k = extrinsic_curvature(emb, 0.2, np.array([1.0, -0.4, 0.3]))
    np.testing.assert_array_equal(k, np.zeros((3, 3)))


def test_extrinsic_curvature_against_stencil_oracle():
    """Lapse-shift route vs. Gram-Schmidt projection route."""
    rng = np.random.default_rng(13)
    embs = [
        make_rotating_embedding("rigid", omega=0.3),
        make_rotating_embedding("differential", omega=1.0, r0=1.1),
    ]
    for emb in embs:
        for _ in range(6):
            tau = float(rng.uniform(-1, 1))
            sigma = rng.uniform(-1.5, 1.5, size=3)
            want = stencil_extrinsic_curvature(emb, tau, sigma)
            got = extrinsic_curvature(emb, tau, sigma)
            np.testing.assert_allclose(got, got.T, atol=1e-12)
            np.testing.assert_allclose(got, want, atol=1e-5)


def test_eigendecomposition_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = rng.standard_normal((3, 3))
        g3 = a @ a.T + 0.05 * np.eye(3)
        data = metric_eigendecomposition(g3)
        np.testing.assert_allclose(data.reconstruct(), g3, atol=1e-10)
        # eigenvalues of g3 are lam^2, so phi_tilde = prod(lam) = sqrt(det)
        assert data.phi_tilde**2 == pytest.approx(np.linalg.det(g3), rel=1e-9)
        # shape coordinates are trace-free by construction of the gamma basis
        lam = data.lam
        assert np.prod(lam / data.phi_tilde ** (1.0 / 3.0)) == pytest.approx(
            1.0, rel=1e-9
        )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(arrays(float, (3, 3), elements=hst.floats(-2.0, 2.0)), hst.floats(0.2, 3.0),
       arrays(float, 2, elements=hst.floats(-1.0, 1.0)),
       arrays(float, 3, elements=hst.floats(-np.pi, np.pi)))
def test_metric_eigendata_round_trip_property(a, phi_tilde, r_shape, theta):
    """metric -> eigendata -> metric and eigendata -> metric -> eigendata."""
    gamma = GAMMA_DEFAULT
    g3 = a @ a.T + 0.1 * np.eye(3)
    data = metric_eigendecomposition(g3)
    np.testing.assert_allclose(
        metric_from_eigendata(data.phi_tilde, data.R, data.theta), g3,
        rtol=0, atol=1e-12 * np.max(np.abs(g3)))

    g3 = metric_from_eigendata(phi_tilde, r_shape, theta)
    data = metric_eigendecomposition(g3)
    assert data.phi_tilde == pytest.approx(phi_tilde, rel=1e-12)
    # eigendecomposition sorts lam descending, so R comes back permuted
    np.testing.assert_allclose(np.sort(gamma @ data.R), np.sort(gamma @ r_shape),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(data.reconstruct(), g3, rtol=0, atol=1e-12 * np.max(np.abs(g3)))


def test_metric_eigendata_round_trip_keeps_small_euler_angles():
    """Angles of 1e-10 put cos(theta_2) within an ulp of 1; the middle angle
    must survive the decomposition rather than fall into the gimbal branch."""
    g3 = metric_from_eigendata(1.0, [1.0, 1.0], [1e-10] * 3)
    data = metric_eigendecomposition(g3)
    np.testing.assert_allclose(data.reconstruct(), g3, rtol=0, atol=1e-12 * np.max(np.abs(g3)))
    angles = np.array([0.4, 1e-10, -0.3])
    np.testing.assert_allclose(euler_zyz_from_rotation(rotation_from_euler_zyz(angles)),
                               angles, rtol=1e-6, atol=0)


def test_gamma_basis_columns():
    gamma = GAMMA_DEFAULT
    np.testing.assert_allclose(gamma.T @ gamma, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(gamma.sum(axis=0), [0.0, 0.0], atol=1e-14)


def test_euler_zyz_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(30):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        angles = euler_zyz_from_rotation(q)
        np.testing.assert_allclose(rotation_from_euler_zyz(angles), q, atol=1e-10)


def test_euler_zyz_gimbal_case():
    # rotation about z alone: middle angle 0, convention fixes the third to 0
    q = rotation_from_euler_zyz(np.array([0.7, 0.0, 0.0]))
    angles = euler_zyz_from_rotation(q)
    assert angles[1] == pytest.approx(0.0, abs=1e-12)
    assert angles[2] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rotation_from_euler_zyz(angles), q, atol=1e-12)


def test_tilted_embedding_rejects_superluminal():
    with pytest.raises(ValueError):
        tilted_embedding(1.0)
    with pytest.raises(ValueError):
        tilted_embedding(np.array([0.8, 0.7, 0.0]))


# ------------------------------------------- batched sweep vs pointwise oracle

def folded_embedding(a, b):
    """z = (b tau + a s1^2 / 2, s1, s2, max(s3, 0)^2), a user embedding.

    Its dz/dsigma^3 vanishes for s3 <= 0 (degenerate tangents), its
    dz/dsigma^1 turns timelike where |a s1| > 1 (normal not timelike), and
    b <= 0 makes the lapse non-positive.  The Jacobian broadcasts over
    leading axes, as every Embedding callable must.
    """

    def z(tau, sigma):
        s1, s2, s3 = np.moveaxis(sigma, -1, 0)
        return np.stack([b * tau + 0.5 * a * s1 * s1, s1, s2,
                         np.maximum(s3, 0.0) ** 2], axis=-1)

    def jac(tau, sigma):
        s1, s3 = sigma[..., 0], sigma[..., 2]
        out = np.zeros(np.shape(s1) + (4, 4))
        out[..., 0, 0] = b
        out[..., 0, 1] = a * s1
        out[..., 1, 1] = 1.0
        out[..., 2, 2] = 1.0
        out[..., 3, 3] = 2.0 * np.maximum(s3, 0.0)
        return out

    return Embedding(z, jacobian=jac, name="folded")


@hst.composite
def embeddings(draw):
    kind = draw(hst.sampled_from(["rigid", "differential", "tilted", "fd", "folded"]))
    unit = hst.floats(-1.0, 1.0)
    if kind == "tilted":
        v = np.array([draw(unit) for _ in range(3)])
        return tilted_embedding(0.95 * v / max(1.0, float(np.linalg.norm(v))))
    if kind == "folded":
        return folded_embedding(draw(hst.floats(0.0, 2.0)), draw(hst.floats(-1.5, 1.5)))
    if kind == "rigid" or (kind == "fd" and draw(hst.booleans())):
        emb = make_rotating_embedding("rigid", omega=draw(hst.floats(0.1, 1.2)))
    else:
        emb = make_rotating_embedding("differential", omega=draw(hst.floats(0.2, 3.0)),
                                      r0=draw(hst.floats(0.3, 2.0)))
    return Embedding(lambda t, s: emb(t, s)) if kind == "fd" else emb


@hst.composite
def grids(draw):
    tau_min = draw(hst.floats(-1.5, 1.0))
    return GridSpec(tau_min, tau_min + draw(hst.floats(0.0, 1.5)), draw(hst.integers(1, 3)),
                    draw(hst.floats(0.5, 3.0)), draw(hst.integers(2, 5)))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_same_report(got, want):
    assert got.passed == want.passed
    assert got.conditions_passed == want.conditions_passed
    assert got.n_nodes == want.n_nodes
    assert len(got.violations) == len(want.violations)
    for g, w in zip(got.violations, want.violations):
        assert g.condition == w.condition
        assert _bits(g.tau) == _bits(w.tau)
        assert _bits(g.sigma) == _bits(w.sigma)
        np.testing.assert_allclose(g.witness, w.witness, rtol=0, atol=1e-12)
    if want.asymptotic_normal is None:
        assert got.asymptotic_normal is None
    else:
        np.testing.assert_allclose(got.asymptotic_normal, want.asymptotic_normal,
                                   rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(embeddings(), grids(), hst.sampled_from([1, -1]))
def test_check_admissibility_matches_pointwise_oracle(emb, grid, sgn):
    """The batched sweep reports what the node-by-node oracle reports in
    either sign convention."""
    assert_same_report(check_admissibility(emb, grid),
                       pointwise_admissibility(emb, grid, sgn=sgn))


def test_blocks_keep_node_order(monkeypatch):
    """Violations and shell normals carry over block boundaries in node order."""
    monkeypatch.setattr(foliation, "_BLOCK", 7)
    grid = GridSpec(-1.0, 1.0, 3, 2.0, 5)
    for emb in (make_rotating_embedding("rigid", omega=0.8), folded_embedding(1.5, -0.5)):
        for sgn in (1, -1):
            assert_same_report(check_admissibility(emb, grid),
                               pointwise_admissibility(emb, grid, sgn=sgn))


def test_degenerate_nodes_are_lapse_violations_with_nan_witness():
    emb = folded_embedding(0.0, 1.0)           # degenerate wherever s3 <= 0
    grid = GridSpec(0.0, 0.0, 1, 1.0, 3)
    rep = check_admissibility(emb, grid)
    nan_nodes = [tuple(v.sigma) for v in rep.violations
                 if v.condition == 1 and np.isnan(v.witness)]
    assert len(nan_nodes) == 18 and all(s[2] <= 0.0 for s in nan_nodes)
    # the nine s3 = 1 nodes are on the shell and leave a well-defined normal
    assert rep.conditions_passed == (False, False, True)
    np.testing.assert_array_equal(rep.asymptotic_normal, [1.0, 0.0, 0.0, 0.0])


def test_non_finite_nodes_are_violations_with_nan_witnesses():
    """A Jacobian that is NaN at some nodes flags those nodes under
    conditions 2 and 1 with NaN witnesses; the finite nodes are judged as
    usual and still give the asymptotic normal."""

    def jac(tau, sigma):
        out = np.broadcast_to(np.eye(4), np.shape(tau) + (4, 4)).copy()
        out[sigma[..., 0] > 0.5] = np.nan
        return out

    emb = Embedding(lambda tau, sigma: np.zeros(np.shape(tau) + (4,)), jacobian=jac,
                    name="nan-beyond-s1")
    rep = check_admissibility(emb, GridSpec(0.0, 0.0, 1, 1.0, 3))
    flagged = {c: [tuple(v.sigma) for v in rep.violations if v.condition == c] for c in (1, 2)}
    assert flagged[1] == flagged[2] and len(flagged[1]) == 9
    assert all(s[0] > 0.5 for s in flagged[1])
    assert all(np.isnan(v.witness) for v in rep.violations)
    assert rep.conditions_passed == (False, False, True)
    np.testing.assert_array_equal(rep.asymptotic_normal, [1.0, 0.0, 0.0, 0.0])


def _bowl():
    """z = (tau + 0.1 |sigma|^2, sigma): every node admissible, shell normals spread."""

    def z(tau, sigma):
        return np.concatenate(((tau + 0.1 * np.sum(sigma * sigma, axis=-1))[..., None], sigma),
                              axis=-1)

    def jac(tau, sigma):
        out = np.broadcast_to(np.eye(4), np.shape(tau) + (4, 4)).copy()
        out[..., 0, 1:] = 0.2 * sigma
        return out

    return Embedding(z, jacobian=jac, name="bowl")


def test_shell_normals_that_spread_fail_condition_3():
    """On the bowl z = (tau + 0.1 |sigma|^2, sigma) the shell normals tilt
    away from their mean (1, 0, 0, 0) by up to 0.4 / sqrt(1 - 3 * 0.4^2) at
    the box corners, far beyond the tolerance, while every node is
    admissible."""
    rep = check_admissibility(_bowl(), GridSpec(0.0, 1.0, 2, 2.0, 5))
    assert rep.conditions_passed == (True, True, False)
    assert [v.condition for v in rep.violations] == [3]
    assert rep.violations[0].witness == pytest.approx(0.4 / np.sqrt(0.52), rel=1e-9)


def test_large_grid_memory_stays_bounded():
    """A 47^3-node sweep runs in fixed-size blocks, not all nodes at once."""
    emb = make_rotating_embedding("differential", omega=1.2, r0=0.8)
    grid = GridSpec(0.5, 0.5, 1, 3.0, 47)
    tracemalloc.start()
    try:
        rep = check_admissibility(emb, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_nodes == 47**3
    assert rep.conditions_passed[:2] == (True, True)
    assert peak < 32 * 2**20


# ------------------------------------------------------------- edge refusals

@pytest.mark.parametrize("asym_tol", [np.nan, -1e-3, np.inf])
def test_asymptotic_tolerance_must_be_finite_and_non_negative(asym_tol):
    """A NaN or infinite tolerance would turn condition 3 off (dev > nan is
    never true) and a negative one would fail it on every grid."""
    with pytest.raises(ValueError, match="asym_tol"):
        check_admissibility(_bowl(), GridSpec(0.0, 1.0, 2, 2.0, 5), asym_tol=asym_tol)


@pytest.mark.parametrize("kwargs, name", [
    ({"sigma_extent": np.inf}, "sigma_extent"),
    ({"tau_min": -np.inf, "tau_max": np.inf}, "tau_min"),
    ({"tau_max": np.inf}, "tau_max"),
    ({"n_tau": 2.5}, "n_tau"),
    ({"n_sigma": 4.0}, "n_sigma"),
])
def test_grid_refuses_non_finite_bounds_and_non_integer_counts(kwargs, name):
    spec = dict(tau_min=0.0, tau_max=1.0, n_tau=3, sigma_extent=2.0, n_sigma=5) | kwargs
    with pytest.raises(ValueError, match=name):
        GridSpec(**spec)


# ---------------------------------------------- cofactor normal and eigen screen

def linear_embedding(m):
    """z = m (tau, sigma): the constant Jacobian m."""
    m = np.asarray(m, dtype=float)

    def z(tau, sigma):
        x = np.concatenate((np.asarray(tau)[..., None], sigma), axis=-1)
        return (m @ x[..., None])[..., 0]

    return Embedding(z, jacobian=lambda tau, sigma: m, name="linear")


@hst.composite
def jacobians(draw):
    entry = hst.floats(-3.0, 3.0)
    kind = draw(hst.sampled_from(["random", "flat", "folded"]))
    if kind == "folded":
        emb = folded_embedding(draw(hst.floats(0.0, 2.0)), draw(hst.floats(-1.5, 1.5)))
        return emb.jacobian(draw(entry), np.array([draw(entry) for _ in range(3)]))
    jac = draw(arrays(float, (4, 4), elements=entry))
    if kind == "flat":  # the third tangent in the plane of the first two
        jac[:, 3] = draw(entry) * jac[:, 1] + draw(entry) * jac[:, 2]
    return jac


@settings(derandomize=True, max_examples=60, deadline=None)
@given(jacobians())
def test_cofactors_match_the_minor_oracle(jac):
    """The closed-form cofactors equal the oracle's 3x3 determinants within
    1e-12 of the product of the tangents' largest entries: up to a factor
    3^(3/2), that product is Hadamard's bound on every minor, and it has no
    squares that underflow."""
    scale = np.prod(np.max(np.abs(jac[:, 1:]), axis=0))
    np.testing.assert_allclose(foliation._cofactors(jac), _cofactor_normal(jac),
                               rtol=0, atol=1e-12 * scale)


def test_frames_of_a_batch_are_the_per_point_frames():
    """Every output of _frames at a point is bitwise what the point alone
    gives, at flat, tipped and non-finite points too."""
    rng = np.random.default_rng(47)
    jac = rng.uniform(-2.0, 2.0, size=(4, 5, 4, 4))          # many tipped normals
    jac[0] = make_rotating_embedding("differential", omega=1.1, r0=0.9).jacobian(
        rng.uniform(-1, 1, 5), rng.uniform(-2, 2, (5, 3)))
    jac[1] = tilted_embedding(np.array([0.2, -0.5, 0.1])).jacobian(np.zeros(5), np.zeros((5, 3)))
    jac[2, 1, :, 3] = 0.5 * jac[2, 1, :, 1] - jac[2, 1, :, 2]  # flat
    jac[2, 2, 2, 2] = np.nan
    jac[2, 3, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        batch = foliation._frames(jac)
        for idx in np.ndindex(jac.shape[:2]):
            for got, want in zip(batch, foliation._frames(jac[idx])):
                assert _bits(got[idx]) == _bits(want), idx


def test_eigvalsh_runs_only_where_gershgorin_cannot_decide(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        seen.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    grid = GridSpec(-1.0, 1.0, 2, 2.0, 4)
    for emb in (make_rotating_embedding("rigid", omega=0.8),
                tilted_embedding(np.array([0.2, -0.5, 0.1]))):
        check_admissibility(emb, grid)
    assert sum(seen) == 0
    # g3 = [[1, 1, 0], [1, 2, 0], [0, 0, 1]]: positive definite, row 0 not dominant
    sheared = np.eye(4)
    sheared[1, 2] = 1.0
    rep = check_admissibility(linear_embedding(sheared), grid)
    assert rep.passed and sum(seen) == rep.n_nodes


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("lowest", [1e-14, -1e-14, 2e-12, 0.4])
@pytest.mark.parametrize("tau_column", [(1.0, 0.0, 0.0, 0.0), (0.5, 0.0, 1.0, 0.0)])
def test_screen_keeps_verdict_and_witness(rotated, lowest, tau_column):
    """With g3 = scale * V diag(1, 0.6, lowest) V^T, condition 2 reports what
    eigvalsh at every node gives: the verdict gtt > 0 and lambda_min > 0 and
    the witness min(gtt, lambda_min), bit for bit.  The tangents carry time
    components along V's last column, so lambda_min can be negative."""
    scale = 3.7
    rot = rotation_from_euler_zyz([0.3, 1.1, -0.7]) if rotated else np.eye(3)
    lam = scale * np.array([1.0, 0.6, lowest])
    jac = np.zeros((4, 4))
    jac[:, 0] = tau_column
    jac[0, 1:] = rot[:, 2]                        # -a a^T with a = V e3 ...
    jac[1:, 1:] = np.sqrt(lam + [0.0, 0.0, 1.0])[:, None] * rot.T  # ... + V diag(lam + e3) V^T
    rep = check_admissibility(linear_embedding(jac), GridSpec(0.0, 0.0, 1, 1.0, 2))

    g4 = foliation._frames(jac)[0]
    gtt, eig0 = g4[0, 0], np.linalg.eigvalsh(-g4[1:, 1:])[0]
    assert abs(eig0 - scale * lowest) <= 1e-14 * scale
    flagged = [v.witness for v in rep.violations if v.condition == 2]
    if gtt > 0.0 and eig0 > 0.0:
        assert flagged == []
    else:
        assert len(flagged) == rep.n_nodes
        assert {_bits(w) for w in flagged} == {_bits(eig0 if eig0 < gtt else gtt)}
