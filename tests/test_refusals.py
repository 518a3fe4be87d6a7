"""Library entry points refuse bad input with their documented error.

One row per refusal: a call on bad input, the exception type it must raise
and a fragment of its message.  Each row reaches a raise statement that the
rest of the suite leaves unrun.
"""

import math

import numpy as np
import pytest

from instantform import (
    cli, collective, foliation, minkowski, potentials, radar, relquant, restframe,
)
from instantform.errors import (
    AdmissibilityError,
    DegenerateSurfaceError,
    InversionError,
    NonTimelikeError,
    SingularPotentialError,
)

_ZEROS = np.zeros((2, 3))


def _pair(**kw):
    """Two particles at rest, one unit apart, with keyword overrides."""
    args = {"masses": [1.0, 2.0], "positions": [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]],
            "momenta": _ZEROS, **kw}
    return collective.ParticleSystem(**args)


def _chart(jacobian, z=None):
    """An embedding with a constant Jacobian, z linear in (tau, sigma)."""
    jac = np.asarray(jacobian, dtype=float)

    def linear(tau, sigma):
        x = np.concatenate((np.asarray(tau)[..., None], sigma), axis=-1)
        return (jac @ x[..., None])[..., 0]

    return foliation.Embedding(z or linear, jacobian=lambda tau, sigma: jac.copy(),
                               name="probe")


# Jacobians [dz/dtau, dz/dsigma^1..3] as columns
_FLAT = np.diag([1.0, 1.0, 1.0, 0.0])       # the sigma^3 tangent vanishes
_TIPPED = np.array([[1.0, 2.0, 0.0, 0.0],   # the sigma^1 tangent (2, 1, 0, 0) is timelike
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0]])
_BACKWARD = np.diag([-1.0, 1.0, 1.0, 1.0])  # tau runs into the past: lapse -1


def _past_pointing():
    return radar.Worldline(lambda s: np.zeros(np.shape(s) + (4,)),
                           lambda s: np.broadcast_to([-1.0, 0.0, 0.0, 0.0],
                                                     np.shape(s) + (4,)).copy(),
                           (0.0, 1.0), name="past")


# z^0 = (tau - 10)^51: a root of multiplicity 51, where each Newton step
# keeps 50/51 of the error, so the residual 1e51 at the start is still
# 1.4e7 after 100 steps
_CUSP = foliation.Embedding(
    lambda tau, sigma: np.concatenate(((tau - 10.0)[..., None] ** 51, sigma), axis=-1),
    jacobian=lambda tau, sigma: np.diag([51.0 * (tau - 10.0) ** 50, 1.0, 1.0, 1.0]),
    name="cusp")
_OBSERVER = radar.inertial_worldline(np.zeros(4), np.zeros(3))
_REL = {"m1": 1.0, "m2": 1.0, "rho": [1.0, 0.0, 0.0], "pi": [0.0, 0.0, 0.0]}

REFUSALS = [
    ("particles-shape", lambda: _pair(positions=np.zeros((3, 3))), ValueError,
     "positions and momenta must have shape (2, 3)"),
    ("particles-momenta-shape", lambda: _pair(momenta=np.zeros(3)), ValueError,
     "positions and momenta must have shape (2, 3)"),
    ("particles-charges", lambda: _pair(charges=[1.0, 2.0, 3.0]), ValueError,
     "charges must have shape (2,)"),
    ("particles-nonfinite", lambda: _pair(charges=[1.0, math.nan]), ValueError,
     "must be finite"),
    ("particles-potential", lambda: _pair(potential="yukawa"), ValueError,
     "potential must be one of"),
    ("particles-c", lambda: _pair(c=0.0), ValueError, "c must be positive"),
    ("tube-frames", lambda: collective.moller_tube_sample(_pair(), n_frames=0, rapidity_max=1.0),
     ValueError, "n_frames must be >= 1"),
    ("embedding-sigma-shape", lambda: _chart(np.eye(4))(0.0, np.zeros(2)), ValueError,
     "sigma shape (2,) does not fit tau ()"),
    ("embedding-z-shape", lambda: _chart(np.eye(4), z=lambda tau, sigma: sigma)(0.0, np.zeros(3)),
     ValueError, "probe: z must return shape (4,)"),
    ("embedding-jacobian-shape",
     lambda: foliation.Embedding(lambda tau, sigma: np.zeros(4),
                                 jacobian=lambda tau, sigma: np.eye(3)).jacobian(0.0, np.zeros(3)),
     ValueError, "jacobian must have shape (4, 4)"),
    ("surface-flat", lambda: foliation.induced_geometry(_chart(_FLAT), 0.0, np.zeros(3)),
     DegenerateSurfaceError, "numerically linearly dependent"),
    ("surface-tipped", lambda: foliation.induced_geometry(_chart(_TIPPED), 0.0, np.zeros(3)),
     DegenerateSurfaceError, "is not timelike"),
    ("curvature-lapse", lambda: foliation.extrinsic_curvature(_chart(_BACKWARD), 0.0, np.zeros(3)),
     AdmissibilityError, "is not positive; extrinsic curvature undefined"),
    ("eigendata-asymmetric",
     lambda: foliation.metric_eigendecomposition([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     ValueError, "g3 must be a symmetric 3x3 matrix"),
    ("eigendata-nonfinite",
     lambda: foliation.metric_eigendecomposition(np.diag([1.0, math.nan, 1.0])),
     ValueError, "g3 must be a symmetric 3x3 matrix of finite numbers"),
    ("eigendata-indefinite", lambda: foliation.metric_eigendecomposition(np.diag([1.0, 1.0, -1.0])),
     AdmissibilityError, "not positive definite"),
    ("eigendata-phi", lambda: foliation.metric_from_eigendata(0.0, np.zeros(2), np.zeros(3)),
     ValueError, "phi_tilde must be positive"),
    ("tilted-2-vector", lambda: foliation.tilted_embedding([0.1, 0.2]), ValueError,
     "velocity must be a scalar or a 3-vector"),
    ("rotating-kind", lambda: foliation.make_rotating_embedding("spiral", 0.1), ValueError,
     "kind must be 'rigid' or 'differential', got 'spiral'"),
    ("rotating-r0", lambda: foliation.make_rotating_embedding("differential", 0.1, r0=0.0),
     ValueError, "falloff radius r0 > 0"),
    ("rotating-r0-squares-to-zero",
     lambda: foliation.make_rotating_embedding("differential", 0.1, r0=1e-300),
     ZeroDivisionError, "r0=1e-300 squares to zero"),
    ("rotating-r0-inverse-square-overflows",
     lambda: foliation.make_rotating_embedding("differential", 0.1, r0=1e-160),
     OverflowError, "1/r0^2 overflows at r0=1e-160"),
    ("rotating-r0-twice-inverse-square-overflows",
     lambda: foliation.make_rotating_embedding("differential", 0.1, r0=1e-154),
     OverflowError, "2/r0^2 overflows at r0=1e-154"),
    ("rotating-c", lambda: foliation.make_rotating_embedding("rigid", 0.1, c=-1.0), ValueError,
     "c must be positive"),
    ("boost-spacelike", lambda: minkowski.standard_boost([1.0, 2.0, 0.0, 0.0]), NonTimelikeError,
     "is not timelike future-pointing"),
    # NaN fails every comparison, so a refusal written as "m2 <= 0" lets it through
    ("boost-nan", lambda: minkowski.standard_boost([math.nan, 0.0, 0.0, 0.0]), NonTimelikeError,
     "is not timelike future-pointing"),
    ("wigner-nan", lambda: minkowski.wigner_rotation([math.nan, 0.0, 0.0, 0.0], np.eye(4)),
     NonTimelikeError, "is not timelike future-pointing"),
    *((f"external-generators-mc-{mc}",
       lambda mc=mc: collective.external_generators(np.zeros(3), np.zeros(3), mc, np.zeros(3)),
       NonTimelikeError, "Mc must be positive")
      for mc in (0.0, -1.0, math.nan)),
    ("generators-nan",
     lambda: collective.invariant_mass_spin(collective.PoincareGenerators(
         np.array([math.nan, 0.0, 0.0, 0.0]), np.zeros((4, 4)), 0.0)),
     NonTimelikeError, "is not future timelike; invariant mass undefined"),
    ("worldline-past", lambda: _past_pointing().validate(), NonTimelikeError,
     "past: four-velocity is not future pointing"),
    *((f"{where}-event-{'x'.join(map(str, shape))}",
       lambda call=call, shape=shape: call(np.zeros(shape)), ValueError,
       f"event must be a 4-vector, got shape {shape}")
      for where, call in [("sync", lambda e: radar.einstein_sync(_OBSERVER, e)),
                          ("coordinates", lambda e: radar.radar_coordinates(_chart(np.eye(4)), e))]
      for shape in [(3,), (5,), (1, 4)]),
    ("coordinates-100-steps", lambda: radar.radar_coordinates(_CUSP, np.zeros(4)),
     InversionError, "cusp: no convergence after 100 iterations (residual 1.378e+07)"),
    ("rindler-accel", lambda: radar.rindler_worldline(0.0), ValueError,
     "acceleration must be positive"),
    ("brent-nan", lambda: radar._brent(lambda x: math.nan, 0.0, 1.0, 1e-12, 1e-15,
                                       fa=math.nan, fb=math.nan), ValueError,
     "the function value at x=0.0 is NaN"),
    ("grid-points", lambda: relquant.radial_grid(1, 10.0), ValueError, "n_points must be >= 2"),
    ("grid-length", lambda: relquant.radial_grid(16, 0.0), ValueError, "length must be positive"),
    ("softening", lambda: relquant.radial_levels(16, 10.0, 1.0, 1.0, 0.1, softening=-1.0),
     ValueError, "softening must be >= 0"),
    ("relative-c", lambda: restframe.RelativeState(**_REL, c=0.0), ValueError,
     "c must be positive"),
    ("relative-potential",
     lambda: restframe.rest_frame_from_relative(restframe.RelativeState(**_REL), "yukawa"),
     ValueError, "potential must be one of"),
    ("dv-dpi-coincident", lambda: potentials._dv_dpi(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, -0.1),
     SingularPotentialError, "potential gradient: particles coincide (|r| = 0.0)"),
    ("gradients-potential",
     lambda: potentials.relative_potential_gradients("yukawa", 1.0, 1.0, 1.0, 1.0,
                                                     np.ones(3), np.zeros(3)),
     ValueError, "unknown potential 'yukawa'"),
    ("render-nonfinite-json",
     lambda: cli._render("report.json", {"witness": np.array([1.0, math.inf])}),
     FloatingPointError, "report.json: Out of range float values are not JSON compliant: inf"),
]


@pytest.mark.parametrize("call, error, fragment", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_bad_input_is_refused_by_name(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert fragment in str(caught.value)
