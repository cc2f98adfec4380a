"""Reference implementations for the oracles.

The frozen-dataclass classes here are MoebiusMap and ProjectivePoint as
they were before they became __slots__ classes.  The arithmetic must not
have moved, so the oracles in test_moebius and test_representation
compare every entry with == (through entries_of, under which a NaN part
equals a NaN part, so products that overflow on both sides still
compare).  central_difference_jacobian_rank is
jacobian_rank as it was before its Jacobian became exact: the rank
oracle in test_representation compares ranks and singular values
against it.  seed_common_fixed_point_tol is its reducibility test; the
reducibility oracle compares _common_fixed_point_tol with it by ==.
polyfit_per_step_integrals and loop_node_derivatives are the quadrature
of volume.py as it was before its weights became closed-form: the
quadrature tests compare _per_step_integrals with the first within a
bound and _node_derivatives with the second by ==.
This module is importable because the pytest configuration puts tests/
on sys.path (pythonpath in pyproject.toml).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from pleatbend.errors import (DegenerateConfiguration, ReducibleRepresentation,
                              SingularMatrix)
from pleatbend.moebius import (RESCALE_LIMIT, IsometryClass, MoebiusMap,
                               chordal, classify, fixed_points)
from pleatbend.representation import (Representation, _adj, _mat,
                                      evaluate_word)


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


def _parts(z) -> tuple:
    z = complex(z)
    return tuple("nan" if math.isnan(p) else p for p in (z.real, z.imag))


def entries_of(m) -> tuple:
    """The four entries as (real, imaginary) pairs for ==, with each NaN
    part replaced by the string "nan" so that NaN == NaN."""
    return tuple(_parts(z) for z in (m.a, m.b, m.c, m.d))


def _scalars(mag: float):
    part = st.floats(-mag, mag, allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.integers(-int(mag), int(mag)),
        part,
        st.builds(complex, part, part),
        st.builds(lambda x, y: np.complex128(complex(x, y)), part, part))


# raw constructor arguments as callers pass them: int, float, complex and
# numpy complex128 (fenchel_nielsen_rep), small and large
raw_entries = st.tuples(*[st.one_of(_scalars(4.0), _scalars(3e3))] * 4)


def steep(k: float, phase: float) -> tuple:
    """Determinant-1 entries with |ad| + |bc| about 2 k^2."""
    w = cmath.exp(1j * phase)
    return (k, k * w, (k - 1 / k) / w, k)


# maps whose products and inverses take the RESCALE_LIMIT branch
steep_entries = st.builds(steep, st.floats(800, 1e4),
                          st.floats(-math.pi, math.pi))


def run_both(got_step, want_step):
    """(got_step(), want_step()) with equal entries, or None when both
    raise SingularMatrix with the same message."""
    try:
        want = want_step()
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as info:
            got_step()
        assert str(info.value) == str(exc)
        return None
    got = got_step()
    assert entries_of(got) == entries_of(want)
    return got, want


def build_both(args):
    """The map from args under both kernels, or SingularMatrix from both."""
    return run_both(lambda: MoebiusMap(*args), lambda: SeedMoebiusMap(*args))


_SL2_BASIS = (np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
              np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
              np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))


def _exp_basis(j: int, h: float) -> np.ndarray:
    if j == 0:
        return np.array([[np.exp(h), 0.0], [0.0, np.exp(-h)]], dtype=complex)
    if j == 1:
        return np.array([[1.0, h], [0.0, 1.0]], dtype=complex)
    return np.array([[1.0, 0.0], [h, 1.0]], dtype=complex)


def _sl2_coords(m: np.ndarray) -> tuple[complex, complex, complex]:
    return m[0, 0], m[0, 1], m[1, 0]


def seed_common_fixed_point_tol(rep, tol: float) -> bool:
    """The reducibility test of jacobian_rank as it was when each image
    was tested for the identity by is_identity(tol) and again by
    classify."""
    fixed_sets = []
    for m in rep.images:
        if m.is_identity(tol):
            continue
        kind = classify(m)
        if kind == IsometryClass.IDENTITY:
            continue
        pts = fixed_points(m)
        fixed_sets.append([p for p in pts if p is not None])
    if not fixed_sets:
        return True          # all generators central
    for candidate in fixed_sets[0]:
        if all(min(chordal(candidate, p) for p in pts) < tol
               for pts in fixed_sets[1:]):
            return True
    return False


def central_difference_jacobian_rank(rep, boundary, h: float = 1e-5,
                                     eps_rank: float = 1e-8,
                                     reducible_tol: float = 1e-8):
    """jacobian_rank with the Jacobian taken by central differences:
    12 perturbed representations for two generators, each evaluating
    every peripheral word."""
    if seed_common_fixed_point_tol(rep, reducible_tol):
        raise ReducibleRepresentation(
            "generators share a fixed point within tolerance")
    n = len(rep.generators)
    base_words = [comp.include_word(w) for comp in boundary.components
                  for w in comp.peripheral_words]

    def tau_vector(r: Representation) -> np.ndarray:
        return np.array([evaluate_word(r, w).trace ** 2 for w in base_words])

    cols = []
    for gi in range(n):
        for j in range(3):
            shifted = []
            for sgn in (+1, -1):
                E = _exp_basis(j, sgn * h)
                m = E @ _mat(rep.images[gi])
                imgs = list(rep.images)
                imgs[gi] = MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
                shifted.append(tau_vector(Representation(rep.generators,
                                                         tuple(imgs),
                                                         rep.relators)))
            cols.append((shifted[0] - shifted[1]) / (2 * h))
    J = np.column_stack(cols)

    conj_dirs = []
    for j in range(3):
        E = _SL2_BASIS[j]
        blocks = []
        for gi in range(n):
            g = _mat(rep.images[gi])
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            ad = g @ E @ (_adj(g) / det)
            blocks.extend(_sl2_coords(E - ad))
        conj_dirs.append(np.array(blocks))
    C = np.column_stack(conj_dirs)
    u, sv_c, _ = np.linalg.svd(C, full_matrices=False)
    Q = u[:, sv_c > 1e-12 * max(sv_c[0], 1e-300)]
    J_proj = J - (J @ Q) @ Q.conj().T

    sv = np.linalg.svd(J_proj, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0, sv
    rank = int(np.sum(sv > eps_rank * sv[0]))
    return rank, sv


def loop_node_derivatives(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Derivative at every node from the local 3-point quadratic, one
    node at a time."""
    n = len(ts)
    out = np.empty(n)
    for k in range(n):
        j = min(max(k - 1, 0), n - 3)
        t0, t1, t2 = ts[j:j + 3]
        y0, y1, y2 = ys[j:j + 3]
        t = ts[k]
        out[k] = (y0 * (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
                  + y1 * (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
                  + y2 * (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1)))
    return out


def _quadratic_panel(ts3, fs3, a: float, b: float) -> float:
    """Integral over [a, b] of the quadratic through three samples."""
    tm = ts3[1]
    coeffs = np.polyfit(np.asarray(ts3) - tm, np.asarray(fs3), 2)
    anti = np.polyint(coeffs)
    return float(np.polyval(anti, b - tm) - np.polyval(anti, a - tm))


def polyfit_per_step_integrals(ts: np.ndarray, fs: np.ndarray) -> list[float]:
    """Composite Simpson split into per-interval contributions, each
    half-panel integrated from a fitted quadratic."""
    n = len(ts)
    per_step: list[float] = []
    k = 0
    while k + 2 < n:
        sl = slice(k, k + 3)
        per_step.append(_quadratic_panel(ts[sl], fs[sl], ts[k], ts[k + 1]))
        per_step.append(_quadratic_panel(ts[sl], fs[sl], ts[k + 1], ts[k + 2]))
        k += 2
    if k + 1 < n:
        sl = slice(n - 3, n)
        per_step.append(_quadratic_panel(ts[sl], fs[sl], ts[-2], ts[-1]))
    return per_step
