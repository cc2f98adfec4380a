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

MoebiusArray.classify, .fixed_points and .complex_length implement the
first three once; the public functions of those names read one column.
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
EPS_BRACKET = 1e-12  # bracket below which cross_ratio's points coincide
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
        self.z1, self.z2 = _unit(z1, z2)

    @classmethod
    def from_complex(cls, z: complex) -> "ProjectivePoint":
        return cls(complex(z), 1.0 + 0.0j)

    @classmethod
    def infinity(cls) -> "ProjectivePoint":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def _raw(cls, z1: complex, z2: complex) -> "ProjectivePoint":
        """Wrap coordinates that are already unit-norm, as they are."""
        p = object.__new__(cls)
        p.z1 = z1
        p.z2 = z2
        return p

    def is_infinity(self) -> bool:
        return abs(self.z2) < EPS_NUM

    def to_complex(self) -> complex:
        """Affine coordinate; infinity comes back as complex(inf)."""
        if self.is_infinity():
            return complex(math.inf, 0.0)
        return self.z1 / self.z2

    def approx_eq(self, other: "ProjectivePoint") -> bool:
        return chordal(self, other) < EPS_NUM

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.is_infinity():
            return "ProjectivePoint(inf)"
        return f"ProjectivePoint({self.to_complex():.6g})"


def _unit(z1: complex, z2: complex) -> tuple[complex, complex]:
    """(z1, z2) scaled to unit norm, as ProjectivePoint stores it."""
    n = math.hypot(abs(z1), abs(z2))
    if n == 0.0:
        raise DegenerateConfiguration("homogeneous coordinates (0, 0)")
    return complex(z1) / n, complex(z2) / n


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
    constructions.  Paths and representation files hold their images
    in arrays, normalized there bit for bit as __post_init__ would, and
    a Representation read off such an array wraps them with _raw.
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
        return _IDENTITY_MAP

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
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        # products, not ** 2, which raises OverflowError past 1.3e154
        pa, pb, pc, pd = abs(a - e), abs(b - f), abs(c - g), abs(d - h)
        ma, mb, mc, md = abs(a + e), abs(b + f), abs(c + g), abs(d + h)
        return math.sqrt(min(pa * pa + pb * pb + pc * pc + pd * pd,
                             ma * ma + mb * mb + mc * mc + md * md))

    def is_identity(self) -> bool:
        return self.distance_to(_IDENTITY_MAP) < EPS_CLASS

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"MoebiusMap([[{self.a:.6g}, {self.b:.6g}], "
                f"[{self.c:.6g}, {self.d:.6g}]])")


_IDENTITY_MAP = MoebiusMap(1.0, 0.0, 0.0, 1.0)


class MoebiusArray:
    """n Moebius maps at once, one per sample, on float64 arrays.

    re and im hold the real and imaginary parts of the entries, shape
    (2, 2, n) as [[a, b], [c, d]].  Products and inverses follow
    MoebiusMap's arithmetic step by step, rounding as the complex
    arithmetic below does; their determinant's root is np.sqrt's, so an
    entry may differ from the scalar one in its last bits, which
    tests/test_kernel.py bounds.  normalizing is the constructor's
    normalization bit for bit (_normalized).  ok is False at a sample
    once any step there would raise in the scalar arithmetic (a
    determinant below 1e-100, abs overflowing) or gives a value that is
    not finite; its entries there mean nothing, and the pipeline raises
    SampleEvaluationFailure for that sample.  The geometry methods
    (apply, apply_interior, classify, fixed_points, complex_length)
    broadcast the n entries against arrays of shape (..., n).
    """

    __slots__ = ("re", "im", "ok")

    def __init__(self, re: np.ndarray, im: np.ndarray, ok: np.ndarray):
        self.re = re
        self.im = im
        self.ok = ok

    @classmethod
    def identity(cls, shape: int | tuple) -> "MoebiusArray":
        """The identity at every element of shape (n, or (..., n))."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        re = np.zeros((2, 2) + shape)
        re[0, 0] = re[1, 1] = 1.0
        return cls(re, np.zeros((2, 2) + shape), np.ones(shape, dtype=bool))

    @classmethod
    def of(cls, maps) -> "MoebiusArray":
        """The entries of MoebiusMaps, as they are, (2, 2, n), ok at
        every one."""
        z = np.array([m.rows() for m in maps], dtype=complex)
        z = z.transpose(1, 2, 0)
        return cls(z.real.copy(), z.imag.copy(), np.ones(z.shape[2], bool))

    def take(self, index) -> "MoebiusArray":
        """The maps at index along the first stacking axis, (2, 2, n)
        for an integer, else (2, 2, *index shape, ..., n)."""
        return MoebiusArray(self.re[:, :, index], self.im[:, :, index],
                            self.ok[index])

    def __matmul__(self, other: "MoebiusArray") -> "MoebiusArray":
        # entry (i, k) is L[i, 0] R[0, k] + L[i, 1] R[1, k], each term
        # _mul's complex product, computed in place
        lr, li, rr, ri = self.re, self.im, other.re, other.im
        re = im = None
        with np.errstate(all="ignore"):
            for j in (0, 1):
                ar, ai = lr[:, j, None], li[:, j, None]
                br, bi = rr[None, j], ri[None, j]
                pr = ar * br
                pr -= ai * bi
                if re is None:
                    re = pr
                else:
                    re += pr
                del pr
                pi = ar * bi
                pi += ai * br
                if im is None:
                    im = pi
                else:
                    im += pi
        return _unimodular(re, im, self.ok & other.ok)

    def inverse(self) -> "MoebiusArray":
        re, im = self.re, self.im
        return _unimodular(
            np.array([[re[1, 1], -re[0, 1]], [-re[1, 0], re[0, 0]]]),
            np.array([[im[1, 1], -im[0, 1]], [-im[1, 0], im[0, 0]]]),
            self.ok)

    def trace_squared(self) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of trace_squared at every sample."""
        with np.errstate(all="ignore"):
            tr = self.re[0, 0] + self.re[1, 1]
            ti = self.im[0, 0] + self.im[1, 1]
            return _mul(tr, ti, tr, ti)

    def _entries(self) -> tuple:
        """a, b, c, d, each (real, imaginary)."""
        return tuple((self.re[i, j], self.im[i, j])
                     for i in (0, 1) for j in (0, 1))

    def apply(self, p: "PointArray") -> tuple["PointArray", np.ndarray]:
        """MoebiusMap.apply at every element, and where the resulting
        ProjectivePoint would raise (both coordinates 0)."""
        a, b, c, d = self._entries()
        z1, z2 = (p.z1r, p.z1i), (p.z2r, p.z2i)
        with np.errstate(all="ignore"):
            w1 = _add(_mul(*a, *z1), _mul(*b, *z2))
            w2 = _add(_mul(*c, *z1), _mul(*d, *z2))
        return PointArray.normalized(*w1, *w2)

    def apply_interior(self, zr, zi, t) -> tuple:
        """MoebiusMap.apply_interior at every element: (z real, z imag,
        t) of the image of (z, t) in upper half space."""
        a, b, c, d = self._entries()
        with np.errstate(all="ignore"):
            w = _add(_mul(*c, zr, zi), d)
            denom = _abs2(*w) + _abs2(*c) * t * t
            # ((a z + b) conj(w) + a conj(c) t t), a complex times the
            # float t being CPython's product with t + 0j
            top = _mul(*_add(_mul(*a, zr, zi), b), w[0], -w[1])
            ac = _mul(*a, c[0], -c[1])
            ac = _mul(*_mul(*ac, t, 0.0), t, 0.0)
            zr_new, zi_new = _add(top, ac)
            return zr_new / denom, zi_new / denom, t / denom

    def distance_to_identity(self) -> np.ndarray:
        """distance_to the identity at every element, summed entry by
        entry."""
        with np.errstate(all="ignore"):
            plus = minus = None
            for (xr, xi), one in zip(self._entries(), (1.0, 0.0, 0.0, 1.0)):
                p = _abs2(xr - one, xi)
                m = _abs2(xr + one, xi)
                plus, minus = ((p, m) if plus is None
                               else (plus + p, minus + m))
            return np.sqrt(np.where(minus < plus, minus, plus))

    def classify(self) -> np.ndarray:
        """The isometry type at every sample as an index into KINDS, or
        -1 where tr^2 is not finite: identity, parabolic (|tr^2 - 4| <
        EPS_CLASS), elliptic (tr^2 real within EPS_CLASS and -EPS_CLASS
        < Re tr^2 < 4), else loxodromic, in that precedence."""
        t2r, t2i = self.trace_squared()
        identity = self.distance_to_identity() < EPS_CLASS
        with np.errstate(all="ignore"):
            parabolic = np.hypot(t2r - 4.0, t2i) < EPS_CLASS
            elliptic = ((np.abs(t2i) < EPS_CLASS) & (-EPS_CLASS < t2r)
                        & (t2r < 4.0))
        kinds = np.select([identity, parabolic, elliptic],
                          [_IDENTITY, _PARABOLIC, _ELLIPTIC], _LOXODROMIC)
        kinds[~(np.isfinite(t2r) & np.isfinite(t2i))] = -1
        return kinds

    def fixed_points(self, kinds: np.ndarray) -> tuple:
        """(first, second) PointArrays of fixed points at every sample,
        kinds as classify gives them, and the masks where their
        ProjectivePoint would raise.  The first carries the eigenvalue
        of larger modulus, or where the moduli tie (elliptic), of the
        stored lift's larger imaginary part; a parabolic map's both lie
        at tr / 2.  Each is the larger eigenvector candidate, (b, mu -
        a) or (mu - d, c).  At an identity they mean nothing."""
        a, b, c, d = self._entries()
        with np.errstate(all="ignore"):
            tr = _add(a, d)
            sq = _mul(*tr, *tr)
            disc = np.sqrt(_complex(sq[0] - 4.0, sq[1]))
            disc[kinds == _PARABOLIC] = 0.0
            plus = (tr[0] + disc.real) / 2.0, (tr[1] + disc.imag) / 2.0
            minus = (tr[0] - disc.real) / 2.0, (tr[1] - disc.imag) / 2.0
            big_p, big_m = np.hypot(*plus), np.hypot(*minus)
            by_modulus = np.abs(big_p - big_m) > EPS_CLASS
            plus_first = np.where(by_modulus, big_p > big_m,
                                  plus[1] > minus[1])
            first = [np.where(plus_first, u, v) for u, v in zip(plus, minus)]
            second = [np.where(plus_first, v, u) for u, v in zip(plus, minus)]
            out = []
            for mu in (first, second):
                mu_a = (mu[0] - a[0], mu[1] - a[1])
                mu_d = (mu[0] - d[0], mu[1] - d[1])
                n1 = _abs2(*b) + _abs2(*mu_a)
                n2 = _abs2(*mu_d) + _abs2(*c)
                pick = n1 >= n2
                out.append(PointArray.normalized(
                    *(np.where(pick, u, v) for u, v in zip(b + mu_a,
                                                            mu_d + c))))
        (p, p_zero), (q, q_zero) = out
        return p, q, p_zero, q_zero

    def complex_length(self, kinds: np.ndarray) -> np.ndarray:
        """lambda = 2 acosh(tr / 2), Im lambda reduced into (-pi, pi],
        at every elliptic or loxodromic sample of kinds.  An elliptic
        map's is taken at the real part of tr / 2, with real part 0, so
        that a rounding-level Im tr cannot pick its sign."""
        elliptic = kinds == _ELLIPTIC
        lam = 2.0 * np.arccosh(_complex(
            (self.re[0, 0] + self.re[1, 1]) / 2.0,
            np.where(elliptic, 0.0, (self.im[0, 0] + self.im[1, 1]) / 2.0)))
        return _complex(np.where(elliptic, 0.0, lam.real),
                        reduce_angle_array(lam.imag))

    @classmethod
    def normalizing(cls, to_zero: "PointArray", to_infinity: "PointArray"
                    ) -> tuple["MoebiusArray", np.ndarray]:
        """normalizing_map at every element, and where it raises
        (endpoints closer than 1e-14 in bracket)."""
        re = np.array([[to_zero.z2r, -to_zero.z1r],
                       [to_infinity.z2r, -to_infinity.z1r]])
        im = np.array([[to_zero.z2i, -to_zero.z1i],
                       [to_infinity.z2i, -to_infinity.z1i]])
        # the determinant is bracket(to_zero, to_infinity), bit for bit
        re, im, det, singular = _normalized(re, im)
        return _checked(re, im, ~singular), np.hypot(*det) < 1e-14


def _unimodular(re, im, ok) -> MoebiusArray:
    """MoebiusMap._from_unimodular at every sample.  The determinant of
    a product is within rounding of 1, where np.sqrt rounds its root as
    cmath.sqrt does."""
    with np.errstate(all="ignore"):
        (adr, adi), (bcr, bci) = _products(re, im)
        det_r, det_i = adr - bcr, adi - bci
        size = np.hypot(adr, adi) + np.hypot(bcr, bci)
        rescale = size <= RESCALE_LIMIT
        s = np.sqrt(_complex(det_r, det_i))
        out_re, out_im = _quot(re, im, s.real, s.imag)
        if not np.all(rescale):
            np.copyto(out_re, re, where=~rescale)
            np.copyto(out_im, im, where=~rescale)
        singular = rescale & (np.hypot(det_r, det_i) < 1e-100)
    return _checked(out_re, out_im, ok & np.isfinite(size) & ~singular)


def _normalized(re, im) -> tuple:
    """MoebiusMap(a, b, c, d) at every element of re + i im, (2, 2,
    ...), bit for bit: the entries divided by cmath.sqrt (_sqrt) of the
    determinant ad - bc, that determinant (real, imaginary), and where
    the constructor raises SingularMatrix, |ad - bc| < 1e-100."""
    with np.errstate(all="ignore"):
        (adr, adi), (bcr, bci) = _products(re, im)
        det = adr - bcr, adi - bci
        return (*_quot(re, im, *_sqrt(*det)), det,
                np.hypot(*det) < 1e-100)


def _products(re, im) -> tuple:
    """ad and bc, each (real, imaginary), at every element of re + i im,
    (2, 2, ...)."""
    (ar, br), (cr, dr) = re
    (ai, bi), (ci, di) = im
    return _mul(ar, ai, dr, di), _mul(br, bi, cr, ci)


def _checked(re, im, ok) -> MoebiusArray:
    """The maps re + i im, ok also False where an entry is not finite."""
    return MoebiusArray(re, im, ok & np.isfinite(re).all(axis=(0, 1))
                        & np.isfinite(im).all(axis=(0, 1)))


# ---------------------------------------------------------------------------
# complex arithmetic on float arrays
#
# Every rounding choice of the array arithmetic, the gluing's included,
# is made here, as the benchmark's vol-gamma-g3 references pin it (see
# README): complex products and quotients are CPython's (_mul, _quot;
# _cmul, _cdiv on complex arrays), the constructor's root cmath.sqrt's
# (_sqrt), the gluing's roots of |det| CPython's float power
# (_half_power), and moduli np.hypot, as abs(complex) is.


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im as a complex array, signed zeros kept."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real = re
    z.imag = im
    return z


def _add(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def _abs2(re, im) -> np.ndarray:
    """|re + i im| ** 2."""
    h = np.hypot(re, im)
    return h * h


def _mul(ar, ai, br, bi) -> tuple:
    """CPython's complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi) -> tuple:
    """CPython's complex quotient: numerator and divisor are divided
    through by the larger part of the divisor, (a + b r i) / (c + d r i)
    with r = bi / br, or else with r = br / bi.  A zero divisor, where
    CPython raises, gives NaN.  The numerator's parts have the shape of
    the quotient."""
    by_real = np.abs(br) >= np.abs(bi)
    every = by_real.all()
    if every:
        ratio = bi / br
        den = br + bi * ratio
    else:
        ratio = np.where(by_real, bi / br, br / bi)
        den = np.where(by_real, br + bi * ratio, br * ratio + bi)
    # (ar + ai ratio) / den and (ai - ar ratio) / den, as arrays written
    # in place, and where the imaginary part is the larger, (ar ratio +
    # ai) / den and (ai ratio - ar) / den
    re = np.asarray(ai * ratio)
    re += ar
    im = np.asarray(ai - ar * ratio)
    if not every:
        by_imag = ~by_real
        np.multiply(ar, ratio, out=re, where=by_imag)
        np.add(re, ai, out=re, where=by_imag)
        np.multiply(ai, ratio, out=im, where=by_imag)
        np.subtract(im, ar, out=im, where=by_imag)
    re /= den
    im /= den
    return re, im


def _sqrt(re, im) -> tuple:
    """CPython's cmath.sqrt, for finite parts of modulus at least
    DBL_MIN (elsewhere the values mean nothing): with x = |re| / 8, s =
    2 sqrt(x + hypot(x, |im| / 8)) and d = |im| / 2s, the root is s + d i
    where re >= 0, else d + s i, the imaginary part taking im's sign.
    numpy's complex sqrt rounds the purely imaginary case differently."""
    x, y = np.abs(re) / 8.0, np.abs(im)
    s = 2.0 * np.sqrt(x + np.hypot(x, y / 8.0))
    d = y / (2.0 * s)
    right = re >= 0
    return np.where(right, s, d), np.copysign(np.where(right, d, s), im)


def _parts(z) -> tuple:
    """Real and imaginary parts; a Python int or float counts as CPython
    converts it for complex arithmetic, with imaginary part 0.0."""
    if isinstance(z, (int, float)):
        return float(z), 0.0
    return z.real, z.imag


def _cmul(x, y) -> np.ndarray:
    """x * y by CPython's complex product (_mul), elementwise."""
    return _complex(*_mul(*_parts(x), *_parts(y)))


def _cdiv(x, y) -> np.ndarray:
    """x / y by CPython's complex quotient (_quot), elementwise."""
    return _complex(*_quot(*_parts(x), *_parts(y)))


def _modulus(z: np.ndarray) -> np.ndarray:
    """abs of every element of a complex array, by np.hypot."""
    return np.hypot(z.real, z.imag)


def _half_power(x: np.ndarray) -> np.ndarray:
    """x ** 0.5 at every element by the C library's pow, as CPython's
    float power takes it; np.sqrt rounds differently."""
    return np.float_power(x, 0.5)


class PointArray:
    """Points of the sphere at many elements, in ProjectivePoint's
    unit-norm homogeneous coordinates: z1 = z1r + i z1i and
    z2 = z2r + i z2i, four float arrays of one shape."""

    __slots__ = ("z1r", "z1i", "z2r", "z2i")

    def __init__(self, z1r, z1i, z2r, z2i):
        self.z1r = z1r
        self.z1i = z1i
        self.z2r = z2r
        self.z2i = z2i

    @classmethod
    def normalized(cls, z1r, z1i, z2r, z2i
                   ) -> tuple["PointArray", np.ndarray]:
        """ProjectivePoint(z1, z2) at every element, and where it raises
        (both coordinates 0)."""
        with np.errstate(all="ignore"):
            n = np.hypot(np.hypot(z1r, z1i), np.hypot(z2r, z2i))
            return cls(z1r / n, z1i / n, z2r / n, z2i / n), n == 0.0

    @classmethod
    def of(cls, points) -> "PointArray":
        """The coordinates of ProjectivePoints, as they are."""
        z = np.array([(p.z1, p.z2) for p in points], dtype=complex)
        return cls(z[:, 0].real, z[:, 0].imag, z[:, 1].real, z[:, 1].imag)

    def parts(self) -> tuple:
        return self.z1r, self.z1i, self.z2r, self.z2i

    def __getitem__(self, index) -> "PointArray":
        return PointArray(*(x[index] for x in self.parts()))

    def select(self, cond, other: "PointArray") -> "PointArray":
        """self where cond holds, else other."""
        return PointArray(*(np.where(cond, x, y)
                            for x, y in zip(self.parts(), other.parts())))

    def point(self, index) -> ProjectivePoint:
        """The ProjectivePoint at index, with these coordinates."""
        z1r, z1i, z2r, z2i = (float(x[index]) for x in self.parts())
        return ProjectivePoint._raw(complex(z1r, z1i), complex(z2r, z2i))


def stack_points(points) -> PointArray:
    """PointArrays of one shape stacked along a new first axis."""
    return PointArray(*(np.stack(x) for x in zip(*(p.parts()
                                                   for p in points))))


def bracket_array(p: PointArray, q: PointArray) -> tuple:
    """bracket at every element, (real, imaginary)."""
    with np.errstate(all="ignore"):
        u = _mul(p.z1r, p.z1i, q.z2r, q.z2i)
        v = _mul(p.z2r, p.z2i, q.z1r, q.z1i)
        return u[0] - v[0], u[1] - v[1]


def chordal_array(p: PointArray, q: PointArray) -> np.ndarray:
    """chordal at every element."""
    return 2.0 * np.hypot(*bracket_array(p, q))


def cross_ratio_array(p1: PointArray, p2: PointArray, p3: PointArray,
                      p4: PointArray) -> tuple:
    """cross_ratio at every element: (real, imaginary, checks), where
    checks lists (label, mask) of cross_ratio's coincidence tests in its
    order; where a mask holds, cross_ratio raises
    DegenerateConfiguration(f"coincident points {label}")."""
    checks = [(label, np.hypot(*bracket_array(u, v)) < EPS_BRACKET)
              for u, v, label in ((p1, p2, "p1, p2"), (p1, p3, "p1, p3"),
                                  (p2, p3, "p2, p3"), (p4, p2, "p4, p2"))]
    with np.errstate(all="ignore"):
        num = _mul(*bracket_array(p4, p1), *bracket_array(p3, p2))
        den = _mul(*bracket_array(p4, p2), *bracket_array(p3, p1))
        return (*_quot(*num, *den), checks)


class IsometryClass:
    """Enumeration of isometry types of hyperbolic 3-space."""

    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    LOXODROMIC = "loxodromic"


def trace_squared(m: MoebiusMap) -> complex:
    """Squared trace (a + d)^2, well defined on PSL(2, C).

    The product t * t, which is inf past the float range where the
    power t ** 2 would raise OverflowError.

    >>> trace_squared(MoebiusMap(2, 0, 0, 0.5))
    (6.25+0j)
    """
    t = m.trace
    return t * t


KINDS = (IsometryClass.IDENTITY, IsometryClass.PARABOLIC,
         IsometryClass.ELLIPTIC, IsometryClass.LOXODROMIC)
_IDENTITY, _PARABOLIC, _ELLIPTIC, _LOXODROMIC = range(len(KINDS))


def _classified(m: MoebiusMap) -> tuple[MoebiusArray, np.ndarray]:
    """m as a one-column MoebiusArray, and its kinds."""
    maps = MoebiusArray.of([m])
    kinds = maps.classify()
    if kinds[0] < 0:
        raise SingularMatrix(f"squared trace {trace_squared(m)} is not finite")
    return maps, kinds


def classify(m: MoebiusMap) -> str:
    """Isometry type, one of KINDS (MoebiusArray.classify); a tr^2 that
    is not finite raises SingularMatrix."""
    return KINDS[_classified(m)[1][0]]


def fixed_points(m: MoebiusMap):
    """Fixed points (p, q), attracting first, or (p, None) for a
    parabolic map (MoebiusArray.fixed_points); the identity raises
    IdentityMap, and a tr^2 that is not finite SingularMatrix."""
    maps, kinds = _classified(m)
    return _fixed_points_at(maps.fixed_points(kinds), kinds, 0)


def _fixed_points_at(points: tuple, kinds: np.ndarray, k: int):
    """fixed_points at sample k of points, fixed_points(kinds)."""
    if kinds[k] == _IDENTITY:
        raise IdentityMap("identity has no isolated fixed points")
    p, q, p_zero, q_zero = points
    parabolic = kinds[k] == _PARABOLIC
    if p_zero[k] or (q_zero[k] and not parabolic):
        raise DegenerateConfiguration("homogeneous coordinates (0, 0)")
    return p.point(k), None if parabolic else q.point(k)


def reduce_angle(x: float) -> float:
    """Reduce a real number modulo 2*pi into (-pi, pi]."""
    y = math.remainder(x, _TWO_PI)
    if y <= -math.pi:
        y += _TWO_PI
    return y


def reduce_angle_array(x: np.ndarray) -> np.ndarray:
    """reduce_angle at every element, bit for bit: fmod is exact, and so
    is the one correction by 2*pi (Sterbenz), so both give the exact
    representative in (-pi, pi]."""
    y = np.fmod(x, _TWO_PI)
    y = np.where(y > math.pi, y - _TWO_PI, y)
    return np.where(y <= -math.pi, y + _TWO_PI, y)


def complex_length(m: MoebiusMap) -> complex:
    """Complex translation length lambda, 4 cosh^2(lambda/2) = tr^2
    (MoebiusArray.complex_length); parabolic and identity maps raise
    DegenerateLength, and a tr^2 that is not finite SingularMatrix."""
    maps, kinds = _classified(m)
    return _length_at(maps.complex_length(kinds), kinds, 0)


def _length_at(lengths: np.ndarray, kinds: np.ndarray, k: int) -> complex:
    """complex_length at sample k of lengths, complex_length(kinds)."""
    if kinds[k] in (_IDENTITY, _PARABOLIC):
        raise DegenerateLength(
            f"complex length undefined for {KINDS[kinds[k]]} map")
    return complex(lengths[k])


def cross_ratio(p1: ProjectivePoint, p2: ProjectivePoint,
                p3: ProjectivePoint, p4: ProjectivePoint) -> complex:
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
        if abs(bracket(u, v)) < EPS_BRACKET:
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
