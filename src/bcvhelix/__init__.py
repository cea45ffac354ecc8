"""Helicoidal CMC surfaces in the Bianchi-Cartan-Vranceanu spaces.

Construct the two-parameter isometry family of helicoidal surfaces sharing a
metric profile U(u), solve for the profiles of constant mean curvature, and
verify everything against an independent extrinsic-curvature oracle.
"""

from .errors import (
    BcvHelixError,
    ConfigError,
    DegenerateFamily,
    DegenerateImmersion,
    DegenerateOrbit,
    DegenerateRadius,
    DomainError,
    EmptyDomain,
    InconsistentCurve,
    NegativeDiscriminant,
    NegativeRadicand,
    NoRealFamily,
    ParameterOutOfRange,
    QuadratureFailure,
    StencilOutOfDomain,
)
from .numerics import (
    DEFAULT_TOL,
    CumulativeQuadrature,
    SmoothFunction,
    Tolerances,
    diff_central,
)
from .spaces import (
    BcvSpace,
    SpaceClass,
    christoffels,
    classify,
    inverse_metric,
    killing_basis,
    killing_residual,
    metric_cartesian,
    metric_cylindrical,
    orthonormal_frame,
    scaling_factor,
)
from .orbit import (
    HelicoidalAction,
    ProfileCurve,
    ProfileDomain,
    arclength_residual,
    geodesic_curvature,
    induced_metric,
    mean_curvature_reduced,
    normal_derivative_log_omega,
    orbital_metric,
    sigma_angle,
    volume_omega,
)
from .bour import (
    BourSeed,
    NaturalChart,
    build_chart,
    delta,
    domain_of_validity,
    gauss_intrinsic,
    natural_from_helicoidal,
    theta0_integrand,
    xi1_from_seed,
    xi2_integrand,
)
from .cmc import (
    CmcCase,
    CmcConstants,
    cmc_U,
    cmc_constants,
    cmc_residual,
    first_integral_check,
    minimal_U,
    select_case,
    sqrt_delta_ode_residual,
    z_ode_residual,
)
from .oracle import (
    LocalGeometry,
    MeshGrid,
    SurfaceChart,
    first_form_grid,
    first_form_numeric,
    gauss_numeric,
    isometry_deviation,
    isometry_matrix,
    local_geometry,
    mean_curvature_extrinsic,
    sample_mesh,
    shared_grid,
)

__version__ = "0.1.0"
