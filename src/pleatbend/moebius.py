"""Arithmetic for PSL(2, C) acting on the Riemann sphere.

Points of the sphere are kept in homogeneous coordinates (z1 : z2),
normalized to unit Euclidean norm, so that infinity (1 : 0) needs no
special casing anywhere.  The chordal distance between unit
representatives is

    d(p, q) = 2 |z1 w2 - z2 w1|,

which is bounded by 2 and vanishes exactly at projective equality.

Matrices are normalized to determinant 1 and identified with their
negatives; nothing in this module exposes a quantity that depends on
the choice of sign except where a docstring says so explicitly
(eigenvalue ordering for elliptic maps).

Conventions fixed here and relied on by the rest of the package:

* classification precedence: identity, then parabolic (|tr^2 - 4| small),
  then elliptic (tr^2 real in [0, 4)), else loxodromic;
* complex translation length lambda satisfies 4 cosh^2(lambda/2) = tr^2
  with Re(lambda) >= 0 and Im(lambda) in (-pi, pi];
* fixed points are returned attracting first;
* cross_ratio(p1, p2, p3, p4) is the image of p4 under the unique map
  sending (p1, p2, p3) to (0, infinity, 1), so cross_ratio(0, oo, 1, z) = z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DegenerateConfiguration,
    DegenerateLength,
    IdentityMap,
    SingularMatrix,
)

EPS_CLASS = 1e-9   # tolerance for trace-based classification
EPS_NUM = 1e-10    # generic numerical comparison tolerance
RESCALE_LIMIT = 1e6  # |ad| + |bc| above which products are not rescaled

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A point of the Riemann sphere in unit-norm homogeneous coordinates."""

    z1: complex
    z2: complex

    def __post_init__(self):
        n = math.hypot(abs(self.z1), abs(self.z2))
        if n == 0.0:
            raise DegenerateConfiguration("homogeneous coordinates (0, 0)")
        object.__setattr__(self, "z1", complex(self.z1) / n)
        object.__setattr__(self, "z2", complex(self.z2) / n)

    @classmethod
    def from_complex(cls, z: complex) -> "ProjectivePoint":
        return cls(complex(z), 1.0 + 0.0j)

    @classmethod
    def infinity(cls) -> "ProjectivePoint":
        return cls(1.0 + 0.0j, 0.0j)

    def is_infinity(self, eps: float = EPS_NUM) -> bool:
        return abs(self.z2) < eps

    def to_complex(self) -> complex:
        """Affine coordinate; infinity comes back as complex(inf)."""
        if self.is_infinity():
            return complex(math.inf, 0.0)
        return self.z1 / self.z2

    def approx_eq(self, other: "ProjectivePoint", eps: float = EPS_NUM) -> bool:
        return chordal(self, other) < eps

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.is_infinity():
            return "ProjectivePoint(inf)"
        return f"ProjectivePoint({self.to_complex():.6g})"


def bracket(p: ProjectivePoint, q: ProjectivePoint) -> complex:
    """Antisymmetric pairing z1 w2 - z2 w1 of unit representatives."""
    return p.z1 * q.z2 - p.z2 * q.z1


def chordal(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Chordal distance on the sphere of radius 1 (diameter 2)."""
    return 2.0 * abs(bracket(p, q))


@dataclass(frozen=True, eq=False)
class MoebiusMap:
    """An element of PSL(2, C), stored as a determinant-1 matrix.

    The constructor rescales to determinant 1 (raising SingularMatrix if
    that is impossible).  Matrices that differ by sign represent the
    same transformation; use distance_to / is_identity for comparisons.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-100:
            raise SingularMatrix(f"determinant {det!r} too small")
        s = cmath.sqrt(det)
        for name, val in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            object.__setattr__(self, name, complex(val) / s)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, u: complex) -> "MoebiusMap":
        """diag(u, 1/u), the map z -> u^2 z."""
        return cls(u, 0.0, 0.0, 1.0 / u)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    @property
    def trace(self) -> complex:
        """Trace of the stored determinant-1 lift (sign is lift-dependent)."""
        return self.a + self.d

    @classmethod
    def _from_unimodular(cls, a: complex, b: complex, c: complex,
                         d: complex) -> "MoebiusMap":
        """Wrap entries whose exact determinant is 1 (products, inverses).

        Rescaling goes through the computed ad - bc, whose rounding error
        is about eps (|ad| + |bc|).  Once that exceeds RESCALE_LIMIT eps,
        rescaling by it would move the trace (and so the complex length)
        further than the rounding of the entries did, so the entries are
        kept as they are.
        """
        if abs(a * d) + abs(b * c) <= RESCALE_LIMIT:
            return cls(a, b, c, d)
        m = object.__new__(cls)
        for name, val in (("a", a), ("b", b), ("c", c), ("d", d)):
            object.__setattr__(m, name, complex(val))
        return m

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap._from_unimodular(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap._from_unimodular(self.d, -self.b, -self.c, self.a)

    def conjugate_by(self, g: "MoebiusMap") -> "MoebiusMap":
        """g self g^-1."""
        return g @ self @ g.inverse()

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(self.a * p.z1 + self.b * p.z2,
                               self.c * p.z1 + self.d * p.z2)

    def apply_interior(self, z: complex, t: float) -> tuple[complex, float]:
        """Action on upper half space (z, t), t > 0.

        Standard extension of the boundary action; used for transporting
        horoball witness points.
        """
        w = self.c * z + self.d
        denom = abs(w) ** 2 + abs(self.c) ** 2 * t * t
        z_new = ((self.a * z + self.b) * w.conjugate()
                 + self.a * self.c.conjugate() * t * t) / denom
        return z_new, t / denom

    def distance_to(self, other: "MoebiusMap") -> float:
        """Frobenius distance between lifts, minimized over the sign."""
        plus = 0.0
        minus = 0.0
        for x, y in zip((self.a, self.b, self.c, self.d),
                        (other.a, other.b, other.c, other.d)):
            plus += abs(x - y) ** 2
            minus += abs(x + y) ** 2
        return math.sqrt(min(plus, minus))

    def is_identity(self, eps: float = EPS_CLASS) -> bool:
        return self.distance_to(MoebiusMap.identity()) < eps

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"MoebiusMap([[{self.a:.6g}, {self.b:.6g}], "
                f"[{self.c:.6g}, {self.d:.6g}]])")


class IsometryClass:
    """Enumeration of isometry types of hyperbolic 3-space."""

    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    LOXODROMIC = "loxodromic"


def trace_squared(m: MoebiusMap) -> complex:
    """Squared trace (a + d)^2, well defined on PSL(2, C).

    >>> trace_squared(MoebiusMap(2, 0, 0, 0.5))
    (6.25+0j)
    """
    return m.trace ** 2


def classify(m: MoebiusMap, eps_class: float = EPS_CLASS) -> str:
    """Isometry type by squared trace.

    Precedence: identity, parabolic (|tr^2 - 4| < eps_class), elliptic
    (tr^2 real within eps_class and 0 <= Re tr^2 < 4), else loxodromic.
    Values of tr^2 within eps_class of the boundary point 4 therefore
    classify as parabolic even when they sit on the elliptic segment.
    """
    if m.is_identity(eps_class):
        return IsometryClass.IDENTITY
    t2 = trace_squared(m)
    if abs(t2 - 4.0) < eps_class:
        return IsometryClass.PARABOLIC
    if abs(t2.imag) < eps_class and -eps_class < t2.real < 4.0:
        return IsometryClass.ELLIPTIC
    return IsometryClass.LOXODROMIC


def _eigenvector(m: MoebiusMap, mu: complex) -> tuple[complex, complex]:
    """Eigenvector of the stored lift for eigenvalue mu.

    Of the two closed-form candidates (b, mu - a) and (mu - d, c) the one
    with larger norm is returned; they are proportional whenever both are
    nonzero, so the choice only affects scale.
    """
    v1 = (m.b, mu - m.a)
    v2 = (mu - m.d, m.c)
    n1 = abs(v1[0]) ** 2 + abs(v1[1]) ** 2
    n2 = abs(v2[0]) ** 2 + abs(v2[1]) ** 2
    return v1 if n1 >= n2 else v2


def fixed_points(m: MoebiusMap, eps_class: float = EPS_CLASS):
    """Fixed points on the sphere, attracting first.

    Returns a pair (p, q) of ProjectivePoints for non-parabolic maps and
    (p, None) for parabolic ones.  "Attracting first" means the first
    point carries the eigenvalue of larger modulus; for elliptic maps,
    where the moduli tie, the first point is the one whose eigenvalue
    (of the stored lift) has positive imaginary part.  That tie-break is
    deterministic but depends on the stored sign of the lift.
    """
    kind = classify(m, eps_class)
    if kind == IsometryClass.IDENTITY:
        raise IdentityMap("identity has no isolated fixed points")
    tr = m.trace
    if kind == IsometryClass.PARABOLIC:
        # double eigenvalue tr/2 (= +-1 up to tolerance)
        v = _eigenvector(m, tr / 2.0)
        return ProjectivePoint(*v), None
    disc = cmath.sqrt(tr * tr - 4.0)
    mu_plus = (tr + disc) / 2.0
    mu_minus = (tr - disc) / 2.0
    if abs(abs(mu_plus) - abs(mu_minus)) > eps_class:
        first, second = ((mu_plus, mu_minus)
                         if abs(mu_plus) > abs(mu_minus)
                         else (mu_minus, mu_plus))
    else:
        first, second = ((mu_plus, mu_minus)
                         if mu_plus.imag > mu_minus.imag
                         else (mu_minus, mu_plus))
    return (ProjectivePoint(*_eigenvector(m, first)),
            ProjectivePoint(*_eigenvector(m, second)))


def reduce_angle(x: float) -> float:
    """Reduce a real number modulo 2*pi into (-pi, pi]."""
    y = math.remainder(x, _TWO_PI)
    if y <= -math.pi:
        y += _TWO_PI
    return y


def complex_length(m: MoebiusMap, eps_class: float = EPS_CLASS) -> complex:
    """Complex translation length lambda, with 4 cosh^2(lambda/2) = tr^2.

    Normalized so that Re(lambda) >= 0 and Im(lambda) lies in (-pi, pi].
    For elliptic maps the real part is exactly 0 (the rotation collapses
    the translation part) and the sign of the imaginary part follows the
    stored lift of the matrix.  Parabolic and identity inputs raise
    DegenerateLength.
    """
    kind = classify(m, eps_class)
    if kind in (IsometryClass.IDENTITY, IsometryClass.PARABOLIC):
        raise DegenerateLength(f"complex length undefined for {kind} map")
    lam = 2.0 * cmath.acosh(m.trace / 2.0)
    re, im = lam.real, reduce_angle(lam.imag)
    if kind == IsometryClass.ELLIPTIC:
        return complex(0.0, im)
    return complex(re, im)


def cross_ratio(p1: ProjectivePoint, p2: ProjectivePoint,
                p3: ProjectivePoint, p4: ProjectivePoint,
                eps: float = 1e-12) -> complex:
    """Image of p4 under the map sending (p1, p2, p3) to (0, oo, 1).

    Equivalently [p4, p1; p3, p2] in bracket form:

        cr = (br(p4, p1) br(p3, p2)) / (br(p4, p2) br(p3, p1)).

    Swapping the first two arguments inverts the value.  The value is 0
    at p4 = p1 and 1 at p4 = p3; the configurations that would need the
    value oo (p4 = p2) or make the normalizing map ill-defined (p1, p2,
    p3 not pairwise distinct) raise DegenerateConfiguration.

    >>> o, i, one = ProjectivePoint.from_complex(0), ProjectivePoint.infinity(), ProjectivePoint.from_complex(1)
    >>> z = cross_ratio(o, i, one, ProjectivePoint.from_complex(2.5))
    >>> round(z.real, 12), abs(z.imag) < 1e-12
    (2.5, True)
    """
    pairs = ((p1, p2, "p1, p2"), (p1, p3, "p1, p3"),
             (p2, p3, "p2, p3"), (p4, p2, "p4, p2"))
    for u, v, label in pairs:
        if abs(bracket(u, v)) < eps:
            raise DegenerateConfiguration(f"coincident points {label}")
    num = bracket(p4, p1) * bracket(p3, p2)
    den = bracket(p4, p2) * bracket(p3, p1)
    return num / den


def normalizing_map(to_zero: ProjectivePoint,
                    to_infinity: ProjectivePoint) -> MoebiusMap:
    """The map sending to_zero -> 0 and to_infinity -> oo.

    Unique up to postcomposition with z -> k z; this particular
    representative is the one with rows built from the homogeneous
    coordinates, which keeps it smooth in its arguments.
    """
    if abs(bracket(to_zero, to_infinity)) < 1e-14:
        raise DegenerateConfiguration("normalizing_map endpoints coincide")
    return MoebiusMap(to_zero.z2, -to_zero.z1, to_infinity.z2, -to_infinity.z1)
