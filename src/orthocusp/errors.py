"""Exception types shared across the package.

Domain errors (exit code 1 at the CLI) all derive from OrthocuspError;
usage errors are raised as UsageError (exit code 2).
"""


class OrthocuspError(Exception):
    """Base class for all domain errors."""


class DegenerateForm(OrthocuspError):
    """det(gram) = 0 where a regular form is required."""


class NearBoundary(OrthocuspError):
    """Float-mode predicate could not decide within tolerance."""


class BoundaryPoint(OrthocuspError):
    """Projective point lies on the hyperplane removed by the tube chart."""


class SingularDenominator(OrthocuspError):
    """A model-conversion denominator vanished."""


class WrongFlagKind(OrthocuspError):
    """Operation received a cusp flag of the wrong rank."""


class NotInParabolic(OrthocuspError):
    """Matrix does not stabilize the given isotropic flag."""


class UnsupportedShape(OrthocuspError):
    """Lattice has no rational basis of the two-hyperbolic-planes shape."""


class ConeNotInFan(OrthocuspError):
    """Cone argument is not a member of the fan."""


class UnstableTruncation(OrthocuspError):
    """Window H and 2H disagree on the returned extreme points."""


class NotConePreserving(OrthocuspError):
    """A generator fails to preserve the cone or the decomposition."""


class MissingIntersectionNumber(OrthocuspError):
    """Degree functional has no value for a required top-degree monomial."""


class NotStabilized(OrthocuspError):
    """Local-density counts did not stabilize within k_max."""


class DeskScopeError(OrthocuspError):
    """Requested computation is outside the supported desk scale."""


class WrongSignature(OrthocuspError):
    """Form has the wrong signature for the construction: (2, n) for the
    volume and dimension formulas, (1, k) for a self-adjoint cone."""


class NoPositiveEigenplane(OrthocuspError):
    """No eigenvalue of the isometry carries a signature-(2,*) plane."""


class NotRootOfUnity(OrthocuspError):
    """Selected eigenvalue is not a root of unity."""


class FixedVectorPresent(OrthocuspError):
    """Cyclotomic decomposition requires a fixed-vector-free action."""


class UsageError(Exception):
    """Bad command line; maps to exit code 2."""
