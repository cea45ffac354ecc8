"""Exception hierarchy for bcvhelix.

Everything derives from BcvHelixError so callers can catch broadly; the CLI
maps these to nonzero exit codes with readable messages.
"""


class BcvHelixError(Exception):
    """Base class for all bcvhelix errors."""


class DomainError(BcvHelixError):
    """A point lies outside the region where the ambient metric is defined
    (B <= margin), or an evaluation left its validity domain."""


class StencilOutOfDomain(DomainError):
    """A finite-difference stencil could not be shrunk into the domain."""


class NegativeDiscriminant(BcvHelixError):
    """Delta(u) < 0: no natural chart exists at this abscissa."""


class NegativeRadicand(BcvHelixError):
    """A square-root argument went negative beyond the clamping band."""


class DegenerateRadius(BcvHelixError):
    """Numerator and denominator of the radius formula vanish together."""


class DegenerateOrbit(BcvHelixError):
    """The orbit volume function vanishes along the curve."""


class DegenerateImmersion(BcvHelixError):
    """EG - F^2 <= 0: the measured first form is not positive definite."""


class InconsistentCurve(BcvHelixError):
    """The two relations defining the profile angle disagree beyond
    tolerance (the curve is not arc-length parametrized there)."""


class EmptyDomain(BcvHelixError):
    """No abscissa satisfies the chart validity conditions."""


class QuadratureFailure(BcvHelixError):
    """Adaptive quadrature hit its refinement cap before meeting tolerance."""


class NoRealFamily(BcvHelixError):
    """A CMC family's discriminant is negative: no real solution exists."""


class DegenerateFamily(BcvHelixError):
    """Parameters land on a structural boundary not covered by the closed
    forms (constant-sqrt-Delta solutions, vanishing leading constants)."""


class ParameterOutOfRange(BcvHelixError):
    """A stated parameter constraint of a solution family fails."""


class ConfigError(BcvHelixError):
    """A job configuration document is malformed."""
