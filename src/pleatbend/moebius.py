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

import numpy as np

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


class ProjectivePoint:
    """A point of the Riemann sphere in unit-norm homogeneous coordinates.

    A ``__slots__`` class: z1 and z2 are set once, by the constructor,
    and nothing assigns them afterwards.  Equality and hashing are by
    identity; use approx_eq or chordal to compare points.
    """

    __slots__ = ("z1", "z2")

    def __init__(self, z1: complex, z2: complex):
        n = math.hypot(abs(z1), abs(z2))
        if n == 0.0:
            raise DegenerateConfiguration("homogeneous coordinates (0, 0)")
        self.z1 = complex(z1) / n
        self.z2 = complex(z2) / n

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


class MoebiusMap:
    """An element of PSL(2, C), stored as a determinant-1 matrix.

    The constructor rescales to determinant 1 (raising SingularMatrix if
    that is impossible).  Matrices that differ by sign represent the
    same transformation; use distance_to / is_identity for comparisons.

    A ``__slots__`` class: the entries a, b, c, d are set once, by the
    constructor (or by _from_unimodular or _raw), and nothing assigns
    them afterwards.  Equality and hashing are by identity.  Every
    normalizing construction goes through __post_init__, which rescales
    the entries in place; instrumentation may wrap it to count
    constructions.  Maps built from the array kernel's entries
    (MoebiusArray, wrapped with _raw by pleated.sample_images) skip
    __post_init__: the kernel has already normalized them, so such
    counts leave them out.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.__post_init__()

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        det = a * d - b * c
        if abs(det) < 1e-100:
            raise SingularMatrix(f"determinant {det!r} too small")
        s = cmath.sqrt(det)
        self.a = complex(a) / s
        self.b = complex(b) / s
        self.c = complex(c) / s
        self.d = complex(d) / s

    @classmethod
    def identity(cls) -> "MoebiusMap":
        """The identity; one shared instance."""
        return _IDENTITY

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
        return cls._raw(complex(a), complex(b), complex(c), complex(d))

    @classmethod
    def _raw(cls, a: complex, b: complex, c: complex,
             d: complex) -> "MoebiusMap":
        """Wrap entries as they are, without __post_init__."""
        m = object.__new__(cls)
        m.a = a
        m.b = b
        m.c = c
        m.d = d
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
        return self.distance_to(_IDENTITY) < eps

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"MoebiusMap([[{self.a:.6g}, {self.b:.6g}], "
                f"[{self.c:.6g}, {self.d:.6g}]])")


_IDENTITY = MoebiusMap(1.0, 0.0, 0.0, 1.0)


class MoebiusArray:
    """n Moebius maps at once, one per sample, on float64 arrays.

    re and im hold the real and imaginary parts of the entries, shape
    (2, 2, n) as [[a, b], [c, d]].  Products and inverses repeat
    MoebiusMap's arithmetic operation by operation, in CPython's order
    of rounding: its complex product, its complex quotient (scaled by
    the larger part of the divisor), cmath.sqrt, and abs as the C
    library's hypot, which np.hypot also calls.  So at every sample
    marked in ok the entries equal those of the scalar MoebiusMap
    computation bit for bit.  ok is False at a sample once any step
    there would raise in the scalar arithmetic (a determinant below
    1e-100, abs overflowing) or gives a value that is not finite; its
    entries there mean nothing, and pleated.sample_images raises
    SampleEvaluationFailure for that sample.
    """

    __slots__ = ("re", "im", "ok")

    def __init__(self, re: np.ndarray, im: np.ndarray, ok: np.ndarray):
        self.re = re
        self.im = im
        self.ok = ok

    @classmethod
    def of(cls, maps) -> "MoebiusArray":
        z = np.array([(m.a, m.b, m.c, m.d) for m in maps],
                     dtype=complex).T.reshape(2, 2, -1)
        return cls(z.real.copy(), z.imag.copy(),
                   np.ones(z.shape[2], dtype=bool))

    @classmethod
    def identity(cls, n: int) -> "MoebiusArray":
        re = np.zeros((2, 2, n))
        re[0, 0] = re[1, 1] = 1.0
        return cls(re, np.zeros((2, 2, n)), np.ones(n, dtype=bool))

    def __matmul__(self, other: "MoebiusArray") -> "MoebiusArray":
        # entry (i, k) is L[i, 0] R[0, k] + L[i, 1] R[1, k]
        lr, li, rr, ri = self.re, self.im, other.re, other.im
        re = im = None
        with np.errstate(all="ignore"):
            for j in (0, 1):
                xr, xi = lr[:, j, None], li[:, j, None]
                yr, yi = rr[None, j], ri[None, j]
                pr = xr * yr - xi * yi
                pi = xr * yi + xi * yr
                re, im = (pr, pi) if re is None else (re + pr, im + pi)
        return _unimodular(re, im, self.ok & other.ok)

    def inverse(self) -> "MoebiusArray":
        re, im = self.re, self.im
        return _unimodular(
            np.array([[re[1, 1], -re[0, 1]], [-re[1, 0], re[0, 0]]]),
            np.array([[im[1, 1], -im[0, 1]], [-im[1, 0], im[0, 0]]]),
            self.ok)

    def trace_squared(self) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of trace_squared at every sample.

        (a + d) ** 2 is CPython's power by squaring: 1 * (t * t).
        """
        with np.errstate(all="ignore"):
            tr = self.re[0, 0] + self.re[1, 1]
            ti = self.im[0, 0] + self.im[1, 1]
            pr = tr * tr - ti * ti
            pi = tr * ti + ti * tr
            return 1.0 * pr - 0.0 * pi, 1.0 * pi + 0.0 * pr

    def entries(self) -> np.ndarray:
        """The entries as complex, shape (n, 4): a, b, c, d per sample."""
        z = np.empty((self.re.shape[2], 4), dtype=complex)
        z.real = self.re.reshape(4, -1).T
        z.imag = self.im.reshape(4, -1).T
        return z


def _unimodular(re: np.ndarray, im: np.ndarray,
                ok: np.ndarray) -> MoebiusArray:
    """MoebiusMap._from_unimodular at every sample."""
    (ar, br), (cr, dr) = re
    (ai, bi), (ci, di) = im
    with np.errstate(all="ignore"):
        adr, adi = ar * dr - ai * di, ar * di + ai * dr
        bcr, bci = br * cr - bi * ci, br * ci + bi * cr
        size = np.hypot(adr, adi) + np.hypot(bcr, bci)
        rescale = size <= RESCALE_LIMIT
        det_r, det_i = adr - bcr, adi - bci
        # cmath.sqrt(det), for finite det with |det| >= 1e-100
        x = np.abs(det_r) / 8.0
        s = 2.0 * np.sqrt(x + np.hypot(x, np.abs(det_i) / 8.0))
        t = np.abs(det_i) / (2.0 * s)
        up = det_r >= 0.0
        s_r = np.where(up, s, t)
        s_i = np.copysign(np.where(up, t, s), det_i)
        # entry / s: CPython divides through by the larger part of s,
        # (re + im r) / (s_r + s_i r) with r = s_i / s_r, or else
        # (re r + im) / (s_r r + s_i) with r = s_r / s_i; as
        # (re p + im q) / den both share one form, as do the imaginary
        # parts, (im p - re q) / den
        by_real = np.abs(s_r) >= np.abs(s_i)
        r_real, r_imag = s_i / s_r, s_r / s_i
        p = np.where(by_real, 1.0, r_imag)
        q = np.where(by_real, r_real, 1.0)
        den = np.where(by_real, s_r + s_i * r_real, s_r * r_imag + s_i)
        out_re = np.where(rescale, (re * p + im * q) / den, re)
        out_im = np.where(rescale, (im * p - re * q) / den, im)
        singular = rescale & (np.hypot(det_r, det_i) < 1e-100)
    ok = (ok & np.isfinite(size) & ~singular
          & np.isfinite(out_re).all(axis=(0, 1))
          & np.isfinite(out_im).all(axis=(0, 1)))
    return MoebiusArray(out_re, out_im, ok)


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
    A map whose tr^2 is not finite has no type and raises
    SingularMatrix.
    """
    t2 = trace_squared(m)
    if not cmath.isfinite(t2):
        raise SingularMatrix(f"squared trace {t2} is not finite")
    if m.is_identity(eps_class):
        return IsometryClass.IDENTITY
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
    return _fixed_points(m, classify(m, eps_class), eps_class)


def _fixed_points(m: MoebiusMap, kind: str, eps_class: float):
    """fixed_points of a map already classified as kind."""
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
    return _complex_length(m, classify(m, eps_class))


def _complex_length(m: MoebiusMap, kind: str) -> complex:
    """complex_length of a map already classified as kind."""
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
