"""Reference implementations for the oracles.

The frozen-dataclass classes here are MoebiusMap and ProjectivePoint as
they were before they became __slots__ classes.  The arithmetic must not
have moved, so the oracles in test_moebius and test_representation
compare every entry with == (through entries_of, under which a NaN part
equals a NaN part, so products that overflow on both sides still
compare).  central_difference_jacobian_rank is
jacobian_rank as it was before its Jacobian became exact, projection
off the conjugation tangents included: the rank oracle in
test_representation compares ranks and singular values against it.
The exact Jacobian vanishes on those tangents up to rounding, which
test_representation checks with conjugation_tangents, so jacobian_rank
no longer projects.  seed_common_fixed_point_tol is its reducibility
test; the reducibility oracle compares _common_fixed_point_tol with it
by ==.  seed_squared_trace_jacobian is _squared_trace_jacobian as it
was when every call looked each letter up by name, and
seed_jacobian_rank is jacobian_rank on it and the seed reducibility
test: the Jacobian oracle compares J, ranks and singular values with
them by ==.  seed_distance_to is MoebiusMap.distance_to as it was when
it summed over the four entry pairs in a loop; test_moebius compares
the unrolled sum with it by ==.
polyfit_per_step_integrals and loop_node_derivatives are the quadrature
of volume.py as it was before its weights became closed-form: the
quadrature tests compare _per_step_integrals with the first within a
bound and _node_derivatives with the second by ==.  seed_term_series
is the sample pipeline as it was before its geometry became one array
pass: evaluate_word, ProjectivePoint by ProjectivePoint, one
realization per pattern of endpoint chains, CPython's scalar
arithmetic and the C library's transcendentals throughout.  The
accuracy gate measures its error against the 50-digit oracle
(_mp_oracle) and holds volume._term_series to twice that error, and
the failure-precedence tests compare the failures they raise.
seed_unwrap_angles is the recurrence volume._unwrap_angles ran, sample
by sample, before it became a running sum of reduced steps; the unwrap
tests require the same failing rows and messages of both and bound the
distance of their lifts by its rounding.
seed_track is the tracking loop of pleated._selection as it was, cuff by
cuff and sample by sample, before it became closed form (pleated._track);
the tracking oracle compares choices, failures and their distances by ==.
seed_fenchel_nielsen_rep, with pants_triple, normal_frame,
_twist_matrix, _conjugate, its unit_det and _cuff_table, is the gluing
as it was before every sample of a path became one stacked pass: one
sample at a time, on 2x2 numpy matrices and CPython's scalar
arithmetic.  test_gluing compares every image entry of the pass with
it bit for bit, signed zeros included, and requires its error at the
first failing sample; normal_frame is the oracle of the stacked frames.
This module is importable because the pytest configuration puts tests/
on sys.path (pythonpath in pyproject.toml).
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from pleatbend.errors import (AngleUnwrapFailure, DegenerateConfiguration,
                              DegenerateTriangle, InvalidDecomposition,
                              NonHyperbolicParameters, NotAdapted,
                              OrientationTrackingFailure, PleatbendError,
                              ReducibleRepresentation, SingularMatrix,
                              UnknownLetter)
from pleatbend.moebius import (EPS_CLASS, RESCALE_LIMIT, IsometryClass,
                               MoebiusMap, _complex_length, _fixed_points,
                               chordal, classify, cross_ratio, fixed_points,
                               normalizing_map, reduce_angle, trace_squared)
from pleatbend.pleated import sample_images, shared_endpoint_check
from pleatbend.representation import (Representation, _mat, _matrices_of,
                                      evaluate_word)
from pleatbend.topology import PantsDecomposition, parse_word


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


def _entry_product(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


_ONE = (1 + 0j, 0j, 0j, 1 + 0j)


def seed_squared_trace_jacobian(rep, words) -> np.ndarray:
    """_squared_trace_jacobian as it was when every call built its
    column and letter tables and looked each token up by name."""
    n = len(rep.generators)
    column = {}
    letter = {}
    for i, (g, m) in enumerate(zip(rep.generators, rep.images)):
        column[g] = 3 * i
        letter[g, False] = (m.a, m.b, m.c, m.d)
        letter[g, True] = (m.d, -m.b, -m.c, m.a)
    rows = []
    for word in words:
        tokens = parse_word(word)
        prefix = [_ONE]
        for tok in tokens:
            if tok not in letter:
                raise UnknownLetter(f"no image for generator {tok[0]!r}")
            prefix.append(_entry_product(prefix[-1], letter[tok]))
        suffix = [_ONE]
        for tok in reversed(tokens):
            suffix.append(_entry_product(letter[tok], suffix[-1]))
        suffix.reverse()
        w = prefix[-1]
        two_tr = 2 * (w[0] + w[3])
        row = [0j] * (3 * n)
        for t, (base, inv) in enumerate(tokens):
            if inv:
                m = _entry_product(suffix[t + 1], prefix[t + 1])
                f = -two_tr
            else:
                m = _entry_product(suffix[t], prefix[t])
                f = two_tr
            col = column[base]
            row[col] += f * (m[0] - m[3])
            row[col + 1] += f * m[2]
            row[col + 2] += f * m[1]
        rows.append(row)
    return np.array(rows, dtype=complex).reshape(len(rows), 3 * n)


def seed_jacobian_rank(rep, boundary):
    """jacobian_rank on the seed reducibility test and Jacobian, its
    singular values counted by np.sum."""
    if seed_common_fixed_point_tol(rep, 1e-8):
        raise ReducibleRepresentation(
            "generators share a fixed point within tolerance")
    J = seed_squared_trace_jacobian(rep, boundary.peripheral_words)
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0, sv
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return rank, sv


def seed_distance_to(m, other) -> float:
    """MoebiusMap.distance_to as it was, summed over the entry pairs in
    a loop."""
    plus = 0.0
    minus = 0.0
    for x, y in zip((m.a, m.b, m.c, m.d), (other.a, other.b, other.c, other.d)):
        plus += abs(x - y) * abs(x - y)
        minus += abs(x + y) * abs(x + y)
    return math.sqrt(min(plus, minus))


def conjugation_tangents(rep) -> np.ndarray:
    """Tangents of rho -> exp(eps E) rho exp(-eps E), E in (H, E+, E-).

    Column j holds, per generator g, the (00, 01, 10) entries of
    E - g E g^-1: conjugation written as the left translations
    exp(eps (E - g E g^-1)) g, in the coordinates of the columns of
    _squared_trace_jacobian.
    """
    conj_dirs = []
    for E in _SL2_BASIS:
        blocks = []
        for m in rep.images:
            g = _mat(m)
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            ad = g @ E @ (_adj(g) / det)
            blocks.extend(_sl2_coords(E - ad))
        conj_dirs.append(np.array(blocks))
    return np.column_stack(conj_dirs)


def central_difference_jacobian_rank(rep, boundary, h: float = 1e-5,
                                     eps_rank: float = 1e-8,
                                     reducible_tol: float = 1e-8):
    """jacobian_rank with the Jacobian taken by central differences:
    12 perturbed representations for two generators, each evaluating
    every peripheral word.  The difference Jacobian carries O(h^2)
    error along the conjugation directions, so unlike jacobian_rank it
    projects them out (conjugation_tangents) before counting."""
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

    C = conjugation_tangents(rep)
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


def seed_unwrap_angles(values) -> np.ndarray:
    """volume._unwrap_angles of one row as it was: the recurrence sample
    by sample, raising AngleUnwrapFailure at the first ambiguous step."""
    out = [float(values[0])]
    for v in values[1:]:
        d = reduce_angle(v - out[-1])
        if abs(d) >= math.pi * (1 - 1e-9):
            raise AngleUnwrapFailure(
                f"bending angle moved {d:.3f} in one step; refine the path")
        out.append(out[-1] + d)
    return np.array(out)


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


# ---------------------------------------------------------------------------
# the scalar sample pipeline, as it was before the geometry pass
#
# One SeedImages per sample (the word images as MoebiusMaps, the kind
# and fixed points of a word found once), endpoint tracking point by
# point, SeedSample's adaptedness check, placement and horoball
# witnesses, and the Schlafli terms of every pattern of endpoint chains
# realized one PleatedRealization at a time.  seed_term_series returns
# what volume._term_series returns, raising or deferring the same
# failures; the per-term and failure-precedence oracles compare the two.

_LABELS = ("attracting", "repelling")
_PAIRS = ((0, 1), (1, 2), (2, 0))
_DEGENERATE = (IsometryClass.IDENTITY, IsometryClass.PARABOLIC)
EPS_SEP = 1e-9


class SeedImages(dict):
    """The word images of one sample, word -> MoebiusMap, with its slot
    commutator traces and the kind and fixed points of every word,
    classified at eps_class."""

    def __init__(self, rep, images, commutators, eps_class):
        super().__init__(images)
        self.rep = rep
        self.commutators = commutators
        self.eps_class = eps_class
        self._kinds = {}
        self._fixed = {}

    def kind(self, word):
        if word not in self._kinds:
            self._kinds[word] = classify(self[word], self.eps_class)
        return self._kinds[word]

    def fixed_points(self, word):
        if word not in self._fixed:
            self._fixed[word] = _fixed_points(self[word], self.kind(word),
                                              self.eps_class)
        return self._fixed[word]

    def cuff_fixed_points(self, cuff):
        kind = self.kind(cuff.word)
        if kind in _DEGENERATE:
            raise NotAdapted(f"cuff {cuff.id!r} is {kind}")
        return self.fixed_points(cuff.word)


def seed_sample_images(reps, pd, eps_class=EPS_CLASS):
    """One SeedImages per representation: the pipeline's words by
    evaluate_word and the slot commutator traces by
    shared_endpoint_check, scalar MoebiusMap arithmetic throughout.  A
    sample the array pass could not evaluate raises its
    SampleEvaluationFailure when its turn comes, as in the pipeline."""
    reps = list(reps)
    images = sample_images(reps[0].generators, _matrices_of(reps), pd,
                           eps_class)
    for k, rep in enumerate(reps):
        failure = images.failure(k)
        if failure is not None:
            raise failure
        maps = {w: evaluate_word(rep, w) for w in images.words}
        commutators = {row: tuple(shared_endpoint_check(maps[row[i]],
                                                        maps[row[j]])[1]
                                  for i, j in _PAIRS)
                       for row in images.rows}
        yield SeedImages(rep, maps, commutators, eps_class)


def seed_resolve_endpoints(images, pd, start):
    if start not in _LABELS:
        raise PleatbendError(f"unknown endpoint label {start!r}")
    out = {}
    for cuff in pd.cuffs:
        first, second = images.cuff_fixed_points(cuff)
        out[cuff.id] = (first, second) if start == "attracting" \
            else (second, first)
    return out


def seed_track_endpoints(images, pd, previous):
    out = {}
    for cuff in pd.cuffs:
        first, second = images.cuff_fixed_points(cuff)
        prev = previous[cuff.id][0]
        d1, d2 = chordal(prev, first), chordal(prev, second)
        gap = chordal(first, second)
        if min(d1, d2) >= 0.45 * gap:
            raise OrientationTrackingFailure(
                f"endpoint of cuff {cuff.id!r} moved {min(d1, d2):.3g} "
                f"against a fixed-point gap of {gap:.3g}")
        out[cuff.id] = (first, second) if d1 <= d2 else (second, first)
    return out


def seed_summary(images, pd):
    """check_adapted's summary, or None when the sample is adapted."""
    kinds = {c.id: images.kind(c.word) for c in pd.cuffs}
    parts = [f"cuff {cid!r} is {kind}" for cid, kind in kinds.items()
             if kind in _DEGENERATE]
    for p, words in enumerate(pd.slot_words):
        for slots, tr2 in zip(_PAIRS, images.commutators[words]):
            if abs(tr2 - 4) < images.eps_class:
                parts.append(f"pants {p} slots {slots} share an endpoint "
                             f"(tr2 commutator {tr2:.6g})")
    return "; ".join(parts) or None


def seed_horoball_witness(pair, conv, cuff_id):
    zeta_c, other_c = pair
    frame = normalizing_map(other_c, zeta_c)
    s = conv.scales[cuff_id]
    if s <= 0:
        raise PleatbendError(f"horoball scale for {cuff_id!r} must be positive")
    return frame.inverse().apply_interior(0j, s)


class SeedSample:
    """One adapted sample: the adaptedness check on construction, then
    placement and horoball witnesses for any endpoint selection."""

    def __init__(self, images, pd):
        summary = seed_summary(images, pd)
        if summary is not None:
            raise NotAdapted(summary)
        self.images = images
        self.pd = pd
        self.holonomy = tuple(tuple(images[w] for w in words)
                              for words in pd.slot_words)
        self.cuff_lengths = {
            c.id: _complex_length(images[c.word], images.kind(c.word))
            for c in pd.cuffs}
        self._witnesses = {}

    def end_witness(self, p, slot, zeta, conv):
        end = self.pd.pants[p].cuff_ends[slot]
        pair = zeta[end.cuff]
        scale = conv.scales.get(end.cuff)
        wit = self._witnesses.get((p, slot, pair, scale))
        if wit is None:
            wit = self._witnesses.get((end.cuff, pair, scale))
            if wit is None:
                wit = seed_horoball_witness(pair, conv, end.cuff)
                self._witnesses[end.cuff, pair, scale] = wit
            if end.conjugator:
                wit = self.images[end.conjugator].apply_interior(*wit)
            self._witnesses[p, slot, pair, scale] = wit
        return wit

    def place(self, p, zeta):
        row = []
        for end in self.pd.pants[p].cuff_ends:
            base = zeta[end.cuff][0]
            if end.conjugator:
                base = self.images[end.conjugator].apply(base)
            row.append(base)
        hol = self.holonomy[p]
        for tri in (tuple(row), (row[0], row[1], hol[1].apply(row[2]))):
            for i in range(3):
                d = chordal(tri[i], tri[(i + 1) % 3])
                if d < EPS_SEP:
                    raise DegenerateTriangle(
                        f"plaque of pants {p} has vertices {d:.3g} apart")
        return tuple(row)


@dataclass(frozen=True)
class SeedRealization:
    sample: SeedSample
    zeta: dict
    xi: tuple


def seed_leaf_bending(real, leaf):
    p, i = leaf
    e1, e2 = real.xi[p][i], real.xi[p][(i + 1) % 3]
    up = real.xi[p][(i + 2) % 3]
    down = real.sample.holonomy[p][(i + 1) % 3].apply(up)
    crv = cross_ratio(e1, e2, up, down)
    if crv == 0 or cmath.isinf(crv):
        raise DegenerateConfiguration(
            f"far vertices of leaf ({p}, {i}) collide with its endpoints")
    return reduce_angle(math.pi - cmath.phase(crv))


def seed_cuff_bending(real, cuff_id):
    """cuff_bending at winding 0."""
    pd = real.sample.pd
    (pp, kp), (pm, km) = pd.signed_ends_of(cuff_id)
    v_plus = pd.pants[pp].cuff_ends[kp].conjugator
    W = real.sample.images[pd.crossing_words[cuff_id]]
    zeta_c, other_c = real.zeta[cuff_id]
    if v_plus:
        lift = real.sample.images[v_plus]
        zeta_c, other_c = lift.apply(zeta_c), lift.apply(other_c)
    frame = normalizing_map(other_c, zeta_c)

    def coord(pt):
        z = frame.apply(pt).to_complex()
        if cmath.isinf(z.real) or cmath.isinf(z.imag):
            raise DegenerateConfiguration(
                f"plaque vertex lies on the axis of cuff {cuff_id!r}")
        return z

    a1 = coord(real.xi[pp][(kp + 1) % 3])
    a2 = coord(real.xi[pp][(kp + 2) % 3])
    b1 = coord(W.apply(real.xi[pm][(km + 1) % 3]))
    b2 = coord(W.apply(real.xi[pm][(km + 2) % 3]))
    dir_a = a1 - a2
    dir_b = b1 - b2
    if abs(dir_a) < 1e-30 or abs(dir_b) < 1e-30:
        raise DegenerateConfiguration(
            f"degenerate plaque directions at cuff {cuff_id!r}")
    return reduce_angle(cmath.phase(dir_b / dir_a))


def seed_truncated_geodesic_length(a, b, witness_a, witness_b):
    frame = normalizing_map(a, b)
    za, ta = frame.apply_interior(*witness_a)
    zb, tb = frame.apply_interior(*witness_b)
    depth_a = (abs(za) ** 2 + ta ** 2) / ta
    height_b = tb
    if depth_a <= 0 or height_b <= 0:
        raise DegenerateConfiguration("horoball witness collapsed to the boundary")
    return math.log(height_b) - math.log(depth_a)


def seed_truncated_length(real, leaf, conv):
    p, i = leaf
    j = (i + 1) % 3
    wit_i = real.sample.end_witness(p, i, real.zeta, conv)
    wit_j = real.sample.end_witness(p, j, real.zeta, conv)
    return seed_truncated_geodesic_length(real.xi[p][i], real.xi[p][j],
                                          wit_i, wit_j)


def seed_schlafli_term(real, key, conv):
    if isinstance(key, str):
        return (seed_cuff_bending(real, key),
                real.sample.cuff_lengths[key].real)
    return seed_leaf_bending(real, key), seed_truncated_length(real, key, conv)


def _seed_pattern_values(sample, lam, ids, zetas, conv, placed):
    chains = range(len(zetas))
    last = len(zetas) - 1
    for p, cuffs in enumerate(lam.pants_cuffs):
        for pattern in itertools.product(chains, repeat=len(cuffs)):
            if (p, pattern) in placed:
                continue
            zeta = {ids[j]: zetas[b][ids[j]] for j, b in zip(cuffs, pattern)}
            placed[p, pattern] = sample.place(p, zeta)
    realizations = {}
    values = {}
    for leaf in lam.leaves:
        for pattern in itertools.product(chains, repeat=len(leaf.support)):
            if max(pattern, default=0) != last:
                continue
            ori = [0] * len(ids)
            for j, b in zip(leaf.support, pattern):
                ori[j] = b
            ori = tuple(ori)
            real = realizations.get(ori)
            if real is None:
                real = realizations[ori] = SeedRealization(
                    sample=sample,
                    zeta={c: zetas[b][c] for c, b in zip(ids, ori)},
                    xi=tuple(placed[p, tuple(ori[j] for j in cuffs)]
                             for p, cuffs in enumerate(lam.pants_cuffs)))
            values[leaf.key, pattern] = seed_schlafli_term(real, leaf.key,
                                                           conv)
    return values


def seed_term_series(pd, lam, reps, starts, conv, eps_class=EPS_CLASS):
    """volume._term_series as it was: sample by sample, point by point."""
    ids = [c.id for c in pd.cuffs]
    series = {}
    deferred = None
    zetas = list(starts)
    for at_sample in seed_sample_images(reps, pd, eps_class):
        if isinstance(zetas[0], str):
            zetas[0] = seed_resolve_endpoints(at_sample, pd, zetas[0])
        else:
            zetas[0] = seed_track_endpoints(at_sample, pd, zetas[0])
        sample = SeedSample(at_sample, pd)
        placed = {}
        values = _seed_pattern_values(sample, lam, ids, zetas[:1], conv,
                                      placed)
        if len(zetas) > 1:
            try:
                zetas[1:] = [seed_track_endpoints(at_sample, pd, z)
                             for z in zetas[1:]]
                values.update(_seed_pattern_values(sample, lam, ids, zetas,
                                                   conv, placed))
            except PleatbendError as exc:
                deferred = exc
                zetas = zetas[:1]
                series = {key: v for key, v in series.items()
                          if not any(key[1])}
        for key, (angle, length) in values.items():
            angles, lengths = series.setdefault(key, ([], []))
            angles.append(angle)
            lengths.append(length)
    return series, deferred


def seed_track(steps, gap, first_state, begin):
    """The tracking loop of pleated._selection as it was.

    steps[a][b][j][k] is the distance from fixed point a of sample k - 1
    to fixed point b of sample k at cuff j; at k = 0 it is the distance
    from a start selection, read in steps[0], or NaN under a label.
    gap[j][k] is the distance between the two fixed points.  The chain
    of every cuff starts at first_state and is tracked from sample
    begin on.  Returns (choice, failures): per cuff, the chain at every
    sample (0 from a failure on), and (k, min(d1, d2)) where tracking
    failed, or None.
    """
    choice, failures = [], []
    for j in range(len(gap)):
        state = first_state
        row = [state] + [0] * (len(gap[j]) - 1)
        failure = None
        for k in range(begin, len(gap[j])):
            d1, d2 = steps[state][0][j][k], steps[state][1][j][k]
            if min(d1, d2) >= 0.45 * gap[j][k]:
                failure = (k, min(d1, d2))
                break
            state = 0 if d1 <= d2 else 1
            row[k] = state
        choice.append(row)
        failures.append(failure)
    return choice, failures


def seed_start_endpoints(path, forward, eps_class=EPS_CLASS):
    """orientation_start_endpoints as it was, on the path's first
    sample."""
    images = next(seed_sample_images([path.reps[0]], path.pd, eps_class))
    zeta = {}
    for bit, cuff in zip(forward, path.pd.cuffs):
        kind = images.kind(cuff.word)
        if kind != IsometryClass.LOXODROMIC:
            raise OrientationTrackingFailure(
                f"cuff {cuff.id!r} is {kind} at the path start; "
                "orientation endpoints need a loxodromic cuff")
        att, rep_pt = images.fixed_points(cuff.word)
        zeta[cuff.id] = (att, rep_pt) if bit else (rep_pt, att)
    return zeta

# ---------------------------------------------------------------------------
# the Fenchel-Nielsen gluing as it was before it became one stacked pass:
# one sample at a time, 2x2 numpy matrices and CPython's scalar arithmetic

_R = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def _twist_matrix(s: complex) -> np.ndarray:
    # orientation chosen so that bending theta = Im s turns up as +theta
    # in the crossing angle at the cuff
    u = cmath.exp(-s / 2)
    return np.array([[u, 0.0], [0.0, 1 / u]], dtype=complex)


def _adj(m: np.ndarray) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def _conjugate(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return g @ x @ (_adj(g) / det)


def _half_trace(lam: complex) -> complex:
    return cmath.cosh(lam / 2)


def pants_triple(l1: complex, l2: complex, l3: complex,
                 label: str = "") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary matrices of one pair of pants with given cuff lengths.

    Returned matrices X1, X2, X3 satisfy X1 X2 X3 = I with
    tr X_k = -2 cosh(l_k / 2); X1 is diagonal.  Raises for parameters
    where the construction degenerates (l1 in 2 pi i Z, or negative
    translation lengths).
    """
    for lam in (l1, l2, l3):
        if lam.real < -1e-12:
            raise NonHyperbolicParameters(
                f"cuff length {lam} has negative real part {label}")
    u = cmath.exp(l1 / 2)
    denom = u - 1 / u
    if abs(denom) < 1e-9:
        raise NonHyperbolicParameters(
            f"first cuff length {l1} is a multiple of 2 pi i {label}")
    t2 = -2 * _half_trace(l2)
    p = (2 * _half_trace(l3) + 2 * _half_trace(l2) / u) / denom
    s = t2 - p
    q = p * s - 1
    if abs(q) < 1e-9:
        raise NonHyperbolicParameters(
            f"degenerate cuff length triple ({l1}, {l2}, {l3}) {label}")
    X1 = np.array([[-u, 0.0], [0.0, -1 / u]], dtype=complex)
    X2 = np.array([[p, q], [1.0, s]], dtype=complex)
    X3 = _adj(X1 @ X2)           # inverse of a determinant-one product
    return X1, X2, X3


def normal_frame(m: np.ndarray, lam: complex) -> np.ndarray:
    """Eigenframe P with P^-1 m P = diag(-e^{lam/2}, -e^{-lam/2}).

    The eigenvalues are supplied, not extracted, so the frame varies
    smoothly along parameter paths.  Columns are kept unnormalized
    except for a positive real rescale; the determinant is rotated to
    the right half plane, which keeps frames of real matrices real.
    """
    target = -2 * _half_trace(lam)
    if abs((m[0, 0] + m[1, 1]) - target) > abs((m[0, 0] + m[1, 1]) + target):
        m = -m
    mup = -cmath.exp(lam / 2)
    mum = -cmath.exp(-lam / 2)
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    scale = abs(a) + abs(d) + 1
    # the frame determinant is +-2 * entry * sinh(lam/2); the column-sign
    # flip is keyed to the entry, not the raw determinant, so that near
    # elliptic target lengths (sinh almost imaginary) the choice does
    # not chatter on roundoff
    flip = False
    if abs(b) >= abs(c) and abs(b) > 1e-14 * scale:
        vp, vm = (b, mup - a), (b, mum - a)
        flip = b.real < 0 or (b.real == 0 and b.imag < 0)
    elif abs(c) > 1e-14 * scale:
        vp, vm = (mup - d, c), (mum - d, c)
        flip = c.real > 0 or (c.real == 0 and c.imag > 0)
    elif abs(a - mup) <= abs(a - mum):
        vp, vm = (1.0, 0.0), (0.0, 1.0)
    else:
        vp, vm = (0.0, 1.0), (-1.0, 0.0)
    P = np.array([[vp[0], vm[0]], [vp[1], vm[1]]], dtype=complex)
    if flip:
        P[:, 1] *= -1
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    if abs(det) < 1e-30:
        raise NonHyperbolicParameters("eigenframe degenerate")
    return P / abs(det) ** 0.5


def _cuff_table(pd: PantsDecomposition, values, what: str) -> dict[str, complex]:
    if isinstance(values, dict):
        table = {k: complex(v) for k, v in values.items()}
        missing = [c.id for c in pd.cuffs if c.id not in table]
        if missing:
            raise NonHyperbolicParameters(f"missing {what} for cuffs {missing}")
        return table
    values = list(values)
    if len(values) != len(pd.cuffs):
        raise NonHyperbolicParameters(
            f"expected {len(pd.cuffs)} {what} values, got {len(values)}")
    return {c.id: complex(v) for c, v in zip(pd.cuffs, values)}


def seed_fenchel_nielsen_rep(pd: PantsDecomposition, lengths,
                        twists) -> Representation:
    """Representation with prescribed cuff lengths and twist-bends.

    lengths and twists are dicts keyed by cuff id (or sequences aligned
    with pd.cuffs); a length is the complex translation length of the
    cuff (purely imaginary = elliptic cuff), a twist s = tau + i theta
    combines shearing tau with bending theta.  Requires the gluing
    recipe attached by standard_decomposition (or an equivalent one in
    the decomposition file).  Raises PleatbendError when the result
    misses the gluing postcondition: a relator residual or a cuff
    trace^2 error above 1e-6.
    """
    fn = pd.fenchel_nielsen
    if fn is None:
        raise InvalidDecomposition(
            "decomposition carries no gluing recipe; build it with "
            "standard_decomposition or add a fenchel_nielsen block")
    lam = _cuff_table(pd, lengths, "length")
    twist = _cuff_table(pd, twists, "twist")

    # raw boundary triples; gluing frames are always taken on these, so
    # frame normalization noise cannot leak twist between cuffs
    triples: list[tuple[np.ndarray, ...]] = []
    for p, pants in enumerate(pd.pants):
        ls = [lam[e.cuff] for e in pants.cuff_ends]
        triples.append(pants_triple(*ls, label=f"(pants {p})"))

    tree = set(fn.tree_cuffs)
    plus_end = {}
    minus_end = {}
    for cuff in pd.cuffs:
        plus_end[cuff.id], minus_end[cuff.id] = pd.signed_ends_of(cuff.id)

    def unit_det(m: np.ndarray) -> np.ndarray:
        return m / abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) ** 0.5

    # accumulate one conjugation per pants along the spanning tree
    conj: dict[int, np.ndarray] = {fn.root: np.eye(2, dtype=complex)}
    pending = {c for c in tree}
    progress = True
    while pending and progress:
        progress = False
        for cid in sorted(pending):
            (pp, kp), (pm, km) = plus_end[cid], minus_end[cid]
            for e in (pd.pants[pp].cuff_ends[kp], pd.pants[pm].cuff_ends[km]):
                if e.conjugator:
                    raise InvalidDecomposition(
                        f"tree cuff {cid!r} has a conjugated end; gluing "
                        "recipe requires plain tree ends")
            if (pp in conj) == (pm in conj):
                continue
            parent, kpar = (pp, kp) if pp in conj else (pm, km)
            child, kch = (pm, km) if pp in conj else (pp, kp)
            P_par = normal_frame(triples[parent][kpar], lam[cid])
            P_ch = normal_frame(triples[child][kch], lam[cid])
            G = P_par @ _R @ _twist_matrix(twist[cid]) @ _adj(P_ch)
            conj[child] = conj[parent] @ unit_det(G)
            pending.discard(cid)
            progress = True
    if pending:
        raise InvalidDecomposition(
            f"gluing tree does not reach all pants (stuck on {sorted(pending)})")

    def placed(p: int, k: int) -> np.ndarray:
        return _conjugate(conj[p], triples[p][k])

    # stable letters for the remaining cuffs
    roles = fn.generator_roles
    stable_gen = {}
    for g, role in roles.items():
        if role.get("kind") == "stable":
            stable_gen[role["cuff"]] = g
    images: dict[str, MoebiusMap] = {}
    for cuff in pd.cuffs:
        cid = cuff.id
        if cid in tree:
            continue
        if cid not in stable_gen:
            raise InvalidDecomposition(
                f"cuff {cid!r} is not a tree edge and has no stable letter")
        (pp, kp), (pm, km) = plus_end[cid], minus_end[cid]
        if pd.pants[pp].cuff_ends[kp].conjugator != "":
            raise InvalidDecomposition(
                f"positive end of cuff {cid!r} must carry no conjugator")
        if pd.pants[pm].cuff_ends[km].conjugator != stable_gen[cid]:
            raise InvalidDecomposition(
                f"negative end of cuff {cid!r} must be conjugated by its "
                f"stable letter {stable_gen[cid]!r}")
        P_plus = normal_frame(triples[pp][kp], lam[cid])
        P_minus = normal_frame(triples[pm][km], lam[cid])
        S_raw = P_minus @ _R @ _twist_matrix(twist[cid]) @ _adj(P_plus)
        cm, cp = conj[pm], conj[pp]
        det_cp = cp[0, 0] * cp[1, 1] - cp[0, 1] * cp[1, 0]
        S = cm @ unit_det(S_raw) @ (_adj(cp) / det_cp)
        images[stable_gen[cid]] = MoebiusMap(S[0, 0], S[0, 1], S[1, 0], S[1, 1])

    for g in pd.generators:
        role = roles.get(g)
        if role is None:
            raise InvalidDecomposition(f"generator {g!r} has no gluing role")
        if role.get("kind") == "boundary":
            m = placed(role["pants"], role["slot"])
            images[g] = MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        elif role.get("kind") != "stable":
            raise InvalidDecomposition(f"unknown role {role!r} for {g!r}")

    rep = Representation(generators=pd.generators,
                         images=tuple(images[g] for g in pd.generators),
                         relators=pd.relators)
    res = rep.relator_residual()
    if res > 1e-6:
        raise PleatbendError(
            f"gluing postcondition failed: relator residual {res:.3e}")
    for cuff in pd.cuffs:
        m = evaluate_word(rep, cuff.word)
        want = 4 * _half_trace(lam[cuff.id]) ** 2
        t2 = trace_squared(m)
        if abs(t2 - want) > 1e-6 * (1 + abs(want)):
            raise PleatbendError(
                f"gluing postcondition failed: cuff {cuff.id!r} trace "
                f"{t2:.6g} vs requested {want:.6g}")
    return rep
