"""Cohomological lower bounds and explicit motion planners for sphere and
projective bundles.

The package has three layers: exact sparse polynomial algebra over F2 and Z
with graded quotient presentations (:mod:`polyalg`, :mod:`ringquot`), the
characteristic-class presentations of projective, pair and plane bundles with
their Euler classes (:mod:`bundles`), the vanishing criteria that turn Euler
class powers into motion-planning lower bounds (:mod:`obstruct`), and the
closed-form geodesic planners with a numeric verification harness
(:mod:`geomplan`).  :mod:`cli` exposes everything as a command line tool.

Only :mod:`geomplan` needs numpy.  Its names are re-exported here lazily: the
first access to one of them (or a ``planner`` run of the CLI) imports
:mod:`geomplan`, and with it numpy, so the algebra starts without it.
"""

from .bundles import (
    BundleError,
    BundleSpec,
    KField,
    feder_ring,
    gaussian_binomial_two,
    grassmann_ring,
    make_bundle,
    projective_ring,
    projective_x_classes,
    q_tilde_ring,
    reduce_mod2,
    trivial_bundle,
)
from .obstruct import (
    InternalDisagreementError,
    NotFoundUpTo,
    PointSphereRow,
    closed_form_check,
    default_k_max,
    euler_power_x_coordinates,
    first_vanishing,
    gysin_equivalence_check,
    point_sphere_table,
    powers,
    sphere_divisibility_test,
    sphere_quotient_ring,
    symm_proj_test,
    symm_sphere_test,
)
from .polyalg import (
    Coeffs,
    GradingError,
    ParseError,
    PolyRing,
    Polynomial,
    RingMismatchError,
    parse_polynomial,
    render_polynomial,
)
from .ringquot import (
    Element,
    ModuleBasisError,
    Presentation,
    PresentationError,
    Strategy,
    free_presentation,
    point_presentation,
)

__version__ = "0.1.0"

_GEOMPLAN_NAMES = (
    "GeometryError",
    "Planner",
    "PlannerReport",
    "PlannerRule",
    "ProjPoint",
    "SpherePoint",
    "build_sphere_planner",
    "complex_structure",
    "geodesic_c",
    "line_error",
    "lines_equal",
    "pi_inverse",
    "pi_map",
    "proj_pi_inverse",
    "proj_pi_map",
    "proj_rho",
    "proj_roundtrip_error",
    "proj_sigma",
    "rho_sphere",
    "sigma_sphere",
    "sphere_roundtrip_error",
    "verify_planner",
)


def __getattr__(name: str):
    if name in _GEOMPLAN_NAMES:
        from . import geomplan

        return getattr(geomplan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
