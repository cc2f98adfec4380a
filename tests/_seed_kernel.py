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
                              DegenerateTriangle, NotAdapted,
                              OrientationTrackingFailure, PleatbendError,
                              ReducibleRepresentation, SingularMatrix)
from pleatbend.moebius import (EPS_CLASS, RESCALE_LIMIT, IsometryClass,
                               MoebiusMap, _complex_length, _fixed_points,
                               chordal, classify, cross_ratio, fixed_points,
                               normalizing_map, reduce_angle)
from pleatbend.pleated import sample_images, shared_endpoint_check
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
    images = sample_images(reps, pd, eps_class)
    for k, rep in enumerate(images.reps):
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
