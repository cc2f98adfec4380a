"""Exception types shared across the toolkit.

Every failure mode that corresponds to a violated mathematical
precondition gets its own class so callers (and the CLI exit-code
mapping) can tell geometry problems apart from file problems.
"""


class PleatbendError(Exception):
    """Base class for all toolkit errors."""


class SingularMatrix(PleatbendError):
    """A 2x2 matrix with (numerically) vanishing determinant."""


class IdentityMap(PleatbendError):
    """Fixed points requested for the identity transformation."""


class DegenerateLength(PleatbendError):
    """Complex translation length requested for a parabolic or identity map."""


class DegenerateConfiguration(PleatbendError):
    """Points coincide where the requested quantity needs them distinct."""


class DegenerateTriangle(PleatbendError):
    """An ideal triangle whose vertices are not pairwise separated."""


class DegenerateTetrahedron(PleatbendError):
    """Ideal tetrahedron shape parameter at 0, 1 or infinity."""


class InvalidDecomposition(PleatbendError):
    """Pants-decomposition data violating a counting or gluing invariant."""


class UnknownLetter(PleatbendError):
    """A word uses a letter that is not a declared generator."""


class NonHyperbolicParameters(PleatbendError):
    """No pair-of-pants group exists for the requested cuff parameters."""


class ReducibleRepresentation(PleatbendError):
    """All generators share a fixed point; rank analysis is meaningless."""


class NotAdapted(PleatbendError):
    """Representation fails the per-cuff or shared-endpoint conditions."""


class AngleUnwrapFailure(PleatbendError):
    """Adjacent path samples differ by too much to unwrap angles mod 2*pi."""


class OrientationTrackingFailure(PleatbendError):
    """Continuous tracking of a cuff endpoint choice became ambiguous."""


class EndpointsMismatch(PleatbendError):
    """A putative loop whose end representations are not conjugate."""


class SampleEvaluationFailure(PleatbendError):
    """A word image of a path sample is singular, overflows or is not
    finite."""
