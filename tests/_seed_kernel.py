"""Reference Möbius kernel for the bit-identity oracles.

The frozen-dataclass classes here are MoebiusMap and ProjectivePoint as
they were before they became __slots__ classes.  The arithmetic must not
have moved, so the oracles in test_moebius and test_representation
compare every entry with ==.  This module is importable because the
pytest configuration puts tests/ on sys.path (pythonpath in
pyproject.toml).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from pleatbend.errors import DegenerateConfiguration, SingularMatrix
from pleatbend.moebius import RESCALE_LIMIT, MoebiusMap


@dataclass(frozen=True, eq=False)
class SeedProjectivePoint:
    z1: complex
    z2: complex

    def __post_init__(self):
        n = math.hypot(abs(self.z1), abs(self.z2))
        if n == 0.0:
            raise DegenerateConfiguration("homogeneous coordinates (0, 0)")
        object.__setattr__(self, "z1", complex(self.z1) / n)
        object.__setattr__(self, "z2", complex(self.z2) / n)


@dataclass(frozen=True, eq=False)
class SeedMoebiusMap:
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
    def identity(cls) -> "SeedMoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def _from_unimodular(cls, a, b, c, d) -> "SeedMoebiusMap":
        if abs(a * d) + abs(b * c) <= RESCALE_LIMIT:
            return cls(a, b, c, d)
        m = object.__new__(cls)
        for name, val in (("a", a), ("b", b), ("c", c), ("d", d)):
            object.__setattr__(m, name, complex(val))
        return m

    def __matmul__(self, other: "SeedMoebiusMap") -> "SeedMoebiusMap":
        return SeedMoebiusMap._from_unimodular(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SeedMoebiusMap":
        return SeedMoebiusMap._from_unimodular(self.d, -self.b, -self.c, self.a)

    def apply(self, p: SeedProjectivePoint) -> SeedProjectivePoint:
        return SeedProjectivePoint(self.a * p.z1 + self.b * p.z2,
                                   self.c * p.z1 + self.d * p.z2)


def entries_of(m) -> tuple:
    return (m.a, m.b, m.c, m.d)


def _scalars(mag: float):
    part = st.floats(-mag, mag, allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.integers(-int(mag), int(mag)),
        part,
        st.builds(complex, part, part),
        st.builds(lambda x, y: np.complex128(complex(x, y)), part, part))


# raw constructor arguments as callers pass them: int, float, complex and
# numpy complex128 (jacobian_rank, fenchel_nielsen_rep), small and large
raw_entries = st.tuples(*[st.one_of(_scalars(4.0), _scalars(3e3))] * 4)


def steep(k: float, phase: float) -> tuple:
    """Determinant-1 entries with |ad| + |bc| about 2 k^2."""
    w = cmath.exp(1j * phase)
    return (k, k * w, (k - 1 / k) / w, k)


# maps whose products and inverses take the RESCALE_LIMIT branch
steep_entries = st.builds(steep, st.floats(800, 1e4),
                          st.floats(-math.pi, math.pi))


def build_both(args):
    """The map from args under both kernels, or SingularMatrix from both."""
    try:
        want = SeedMoebiusMap(*args)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as info:
            MoebiusMap(*args)
        assert str(info.value) == str(exc)
        return None
    got = MoebiusMap(*args)
    assert entries_of(got) == entries_of(want)
    return got, want
