"""instantform: rest-frame instant-form relativistic dynamics toolkit.

The package is organized around the machinery needed to set up and use
rest-frame instant-form dynamics for isolated relativistic particle systems:

``minkowski``
    Flat metric in either sign convention, boosts parameterized by h =
    gamma*beta, and Wigner rotations.
``foliation``
    Embeddings of 3+1 foliations (simultaneity conventions), induced metric,
    lapse/shift, extrinsic curvature, admissibility checks, and the
    volume/shape/orientation parameterization of 3-metrics.
``radar``
    Einstein clock synchronization along accelerated world-lines and
    inversion of foliation charts (event -> surface coordinates).
``collective``
    Poincare generators of particle snapshots, invariant mass and rest spin,
    the three relativistic collective centers (energy / inertia / canonical),
    and the world-tube of frame-dependent centers of energy.
``restframe``
    Transformation of snapshots into the rest-frame instant form (internal
    coordinates on the Wigner 3-space), two-body relative dynamics under the
    invariant-mass Hamiltonian, and reconstruction of lab world-lines.
``relquant``
    Quantization of the two-body relative motion: spinless-Salpeter plus
    Coulomb mass operator on a radial grid and its spectrum by a
    matrix-free preconditioned eigensolver.
``cli``
    A small batch front end over the above with deterministic artifacts.

Internally c = 1 (the time axis carries lengths); public entry points that
need it take an explicit ``c`` and convert at the boundary.  Only results
that depend on the metric sign convention take an ``sgn`` argument (+1 for
mostly-minus, the default, or -1 for mostly-plus): ``minkowski.metric``,
``minkowski_dot``, ``is_lorentz`` and ``foliation.induced_geometry``.
"""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    CollisionError,
    ConfigError,
    DegenerateSurfaceError,
    InstantFormError,
    InversionError,
    NonConvergenceError,
    NonTimelikeError,
    NoSolutionError,
    SingularPotentialError,
)

__all__ = [
    "__version__",
    "minkowski",
    "foliation",
    "radar",
    "potentials",
    "collective",
    "restframe",
    "relquant",
    "InstantFormError",
    "NonTimelikeError",
    "DegenerateSurfaceError",
    "AdmissibilityError",
    "NoSolutionError",
    "InversionError",
    "SingularPotentialError",
    "CollisionError",
    "NonConvergenceError",
    "ConfigError",
]

# Submodules load on first use (PEP 562), so a program pays only for the
# layers it uses.  __import__ rather than
# importlib.import_module, whose imports -X importtime does not report.
_SUBMODULES = {"minkowski", "foliation", "radar", "potentials", "collective",
               "restframe", "relquant"}


def __getattr__(name):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
