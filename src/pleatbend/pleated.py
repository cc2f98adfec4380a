"""Pleated realizations of an oriented pants decomposition.

Given an adapted representation, every pants carries two ideal
triangles in the quotient; their lifts are pinned down by one chosen
fixed point per cuff (the spiraling endpoint).  Slot k of pants p
realizes the vertex

    xi_{p,k} = rho(conjugator_k) . zeta(cuff_k),

the upper plaque is (xi_0, xi_1, xi_2), and the lower plaque is
obtained by pushing xi_2 with the slot-1 holonomy.  Bending angles are
read off cross-ratios of neighboring plaques; truncated leaf lengths
come from one horoball per cuff, transported to every leaf end it
serves, so both sides of a cuff always agree.

Angles are exterior dihedral angles in (-pi, pi]: 0 for flat
(Fuchsian) configurations, sign following the imaginary part of the
cross-ratio position.

Everything here is computed for many samples at once.  sample_images
evaluates the words of a list of representations in one array pass;
endpoint selection, the adaptedness check, placement and the Schlafli
terms read that pass through moebius' array kernel (MoebiusArray,
PointArray), which repeats the scalar MoebiusMap and ProjectivePoint
arithmetic bit for bit.  Two parts stay scalar: the tracking step that
picks one of two fixed points from the previous sample's choice, and
the transcendentals (cmath.phase, math.log, cmath.acosh, reduce_angle),
which the C library computes differently from numpy's vectorized
versions, so they run on the .tolist() values.  A single realization
(realize, bending_data and the term functions) is the same computation
on a one-sample pass.

Failures keep the scalar order.  Every guard is computed as a mask over
the samples (and the endpoint patterns), and _Failures raises the one
the scalar pipeline, sample by sample, would have met first, with its
type and message.  Arithmetic errors of the scalar code (abs or ** 2
overflowing, a division by an exact zero) are not guards: past the
float range the arrays carry inf or NaN instead.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfiguration, DegenerateTriangle, NotAdapted,
                     OrientationTrackingFailure, PleatbendError,
                     SampleEvaluationFailure, SingularMatrix, UnknownLetter)
from .moebius import (EPS_CLASS, EPS_NUM, KINDS, MoebiusArray, MoebiusMap,
                      PointArray, ProjectivePoint, _over, _quot, _sq,
                      chordal_array, cross_ratio_array, reduce_angle,
                      stack_points, trace_squared)
from .representation import Representation, evaluate_word
from .topology import (CuffCrossing, Lamination, LeafCrossing,
                       PantsDecomposition, TransverseArc, _tokens,
                       build_lamination, invert_word)

EPS_SEP = 1e-9

_LABELS = ("attracting", "repelling")
_PAIRS = ((0, 1), (1, 2), (2, 0))    # slot pairs of check_adapted
_IDENTITY, _PARABOLIC, _ELLIPTIC, _LOXODROMIC = range(len(KINDS))
_ZERO = "homogeneous coordinates (0, 0)"     # ProjectivePoint's failure
_COINCIDE = "normalizing_map endpoints coincide"


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(np.shape(re), dtype=complex)
    z.real = re
    z.imag = im
    return z


class SampleImages:
    """Images of the pipeline's words at n samples, from one array pass.

    maps takes every word the pipeline reads (cuff words, slot words,
    conjugators and the crossing words of cuff_bending) to its
    MoebiusArray, whose entries equal evaluate_word's at every sample
    bit for bit.  traces holds the tr^2 of the slot commutators that
    check_adapted reads, (n, len(rows), 3) for the distinct slot rows
    in rows and the pairs (0, 1), (1, 2), (2, 0).  checks lists (what,
    ok) for every word and then every row; a sample where some ok is
    False would raise in the scalar arithmetic or is not finite, and
    failure() names it.  The kind and the fixed points of a word are
    read off its images once, at eps_class, the classification
    tolerance that the pass fixes for everything that reads it.
    """

    __slots__ = ("reps", "pd", "eps_class", "maps", "rows", "traces",
                 "checks", "_kinds", "_fixed")

    def __init__(self, reps: list, pd: PantsDecomposition, eps_class: float,
                 maps: dict, rows: list, traces: np.ndarray, checks: list):
        self.reps = reps
        self.pd = pd
        self.eps_class = eps_class
        self.maps = maps
        self.rows = rows
        self.traces = traces
        self.checks = checks
        self._kinds = {}
        self._fixed = {}

    def __len__(self) -> int:
        return len(self.reps)

    def at(self, k: int) -> "SampleImages":
        """The pass of sample k alone."""
        return SampleImages(self.reps[k:k + 1], self.pd, self.eps_class,
                            {w: m.at(k) for w, m in self.maps.items()},
                            self.rows, self.traces[k:k + 1],
                            [(what, ok[k:k + 1]) for what, ok in self.checks])

    def evaluated(self) -> np.ndarray:
        """Where every word and commutator of a sample was evaluated."""
        return np.logical_and.reduce([ok for _, ok in self.checks])

    def failure(self, k: int) -> SampleEvaluationFailure | None:
        """The evaluation failure of sample k, naming the first word or
        slot row that failed there, or None."""
        what = next((what for what, ok in self.checks if not ok[k]), None)
        if what is None:
            return None
        return SampleEvaluationFailure(
            f"sample {k}: {what} is singular, overflows or is not finite")

    def kind(self, word: str) -> np.ndarray:
        """MoebiusArray.classify of the images of word."""
        kinds = self._kinds.get(word)
        if kinds is None:
            kinds = self._kinds[word] = self.maps[word].classify(
                self.eps_class)
        return kinds

    def fixed_points(self, word: str) -> tuple:
        """MoebiusArray.fixed_points of the images of word."""
        pts = self._fixed.get(word)
        if pts is None:
            pts = self._fixed[word] = self.maps[word].fixed_points(
                self.eps_class)
        return pts


def sample_images(reps, pd: PantsDecomposition,
                  eps_class: float = EPS_CLASS) -> SampleImages:
    """The SampleImages of a list of representations, by one array pass.

    Every word the sample pipeline reads is evaluated at all
    representations at once with MoebiusArray, folding each distinct
    token prefix once, and so is the tr^2 of every slot commutator that
    check_adapted reads.  Both equal the values of evaluate_word and
    shared_endpoint_check bit for bit.  Letters are looked up by name,
    so the representations may list their generators in any order; a
    letter that one of them lacks raises UnknownLetter.  A sample at
    which a value would raise in the scalar arithmetic is not raised
    here: its consumers raise SampleEvaluationFailure when they reach
    it, so they meet the failures of earlier samples first.
    """
    reps = list(reps)
    return SampleImages(reps, pd, eps_class, *_array_pass(reps, pd))


def _array_pass(reps: list, pd: PantsDecomposition):
    """The array pass of sample_images: (maps, slot rows, their
    commutator tr^2 (n, rows, 3), checks).  The prefix arrays that no
    word ends on are freed on return."""
    n = len(reps)
    tables = [rep.image_of for rep in reps]
    letters = {}
    words = [c.word for c in pd.cuffs]
    words += [w for row in pd.slot_words for w in row]
    words += [e.conjugator for pants in pd.pants for e in pants.cuff_ends]
    words += pd.crossing_words.values()
    prefixes = {(): MoebiusArray.identity(n)}
    maps = {}
    for word in dict.fromkeys(words):
        tokens = _tokens(word)
        for k, (base, inv) in enumerate(tokens):
            if tokens[:k + 1] in prefixes:
                continue
            if base not in letters:
                try:
                    m = MoebiusArray.of([table[base] for table in tables])
                except KeyError:
                    s = next(s for s, table in enumerate(tables)
                             if base not in table)
                    raise UnknownLetter(f"no image for generator {base!r} "
                                        f"at sample {s}") from None
                letters[base] = {False: m, True: m.inverse()}
            prefixes[tokens[:k + 1]] = (prefixes[tokens[:k]]
                                        @ letters[base][inv])
        maps[word] = prefixes[tokens]
    checks = [(f"word {w!r}", m.ok) for w, m in maps.items()]
    rows = list(dict.fromkeys(pd.slot_words))
    traces = np.empty((n, len(rows), 3), dtype=complex)
    for r, row in enumerate(rows):
        row_maps = [maps[w] for w in row]
        inverses = [m.inverse() for m in row_maps]
        ok = np.ones(n, dtype=bool)
        for c, (i, j) in enumerate(_PAIRS):
            comm = row_maps[i] @ row_maps[j] @ inverses[i] @ inverses[j]
            cell = traces[:, r, c]
            cell.real, cell.imag = comm.trace_squared()
            ok &= comm.ok & np.isfinite(cell)
        checks.append((f"slot commutators of {row}", ok))
    return maps, rows, traces, checks


def _one_sample(rep: Representation | SampleImages, pd: PantsDecomposition,
                eps_class: float = EPS_CLASS) -> SampleImages:
    """rep itself if it is a SampleImages of one sample (which keeps its
    own tolerance), else the one-sample pass at rep, classifying at
    eps_class; raises the sample's evaluation failure."""
    images = rep if isinstance(rep, SampleImages) \
        else sample_images([rep], pd, eps_class)
    if len(images) != 1:
        raise PleatbendError(
            f"expected the images of one sample, got {len(images)}")
    failure = images.failure(0)
    if failure is not None:
        raise failure
    return images


# ---------------------------------------------------------------------------
# failures in the scalar order


class _Failures:
    """The guards of a pass and the first failure among them.

    A guard is a mask, over samples (n,) or over endpoint patterns and
    samples (patterns, n), True where a step of the scalar pipeline
    raises, with the error it raises there.  Its place in the scalar
    order is (sample, phase, stage, item, pattern, g): samples in
    order; within a sample, phase 0 (pattern row 0, which takes chain 0
    on every cuff) before phase 1 (the other rows, and the tracking of
    chain 1); then the stage (-1 evaluation and start label, 0 endpoint
    selection, 1 adaptedness, 2 placement, 3 Schlafli terms), the item
    within it (cuff, pants or leaf), the pattern row, and the guard's
    place within its block, in the order guards() records them.
    """

    def __init__(self):
        self._first = [None, None]     # per phase: (key, error, message)

    def guards(self, stage: int, item: int, phase: int = 0):
        """A recorder for one block: guard(mask, error, message) records
        its next guard; message is a string or a function of (pattern
        row, sample).  phase applies to masks over samples only."""
        order = itertools.count()

        def guard(mask, error, message):
            g = next(order)
            if mask.any():
                self._add((stage, item), g, mask, error, message, phase)
        return guard

    def _add(self, block, g, mask, error, message, phase):
        if mask.ndim == 1:
            hits = [(phase, 0, int(mask.argmax()))]
        else:
            hits = []
            if mask[0].any():
                hits.append((0, 0, int(mask[0].argmax())))
            rest = mask[1:].any(axis=0)
            if rest.any():
                k = int(rest.argmax())
                hits.append((1, 1 + int(mask[1:, k].argmax()), k))
        for ph, row, k in hits:
            key = (k, ph, *block, row, g)
            first = self._first[ph]
            if first is None or key < first[0]:
                self._first[ph] = (key, error, message)

    def first(self, phase: int) -> PleatbendError | None:
        """The first failure of a phase, or None."""
        hit = self._first[phase]
        if hit is None:
            return None
        key, error, message = hit
        if not isinstance(message, str):
            message = message(key[4], key[0])
        return error(message)

    def raise_first(self) -> None:
        for phase in (0, 1):
            failure = self.first(phase)
            if failure is not None:
                raise failure


def _singular(images: SampleImages, word: str, k: int) -> str:
    """classify's message where the tr^2 of word is not finite."""
    t2r, t2i = images.maps[word].trace_squared()
    return f"squared trace {complex(t2r[k], t2i[k])} is not finite"


def _kinds(images: SampleImages, word: str, guard) -> np.ndarray:
    """images.kind(word), recording classify's guard: SingularMatrix
    where tr^2 is not finite."""
    kinds = images.kind(word)
    guard(kinds < 0, SingularMatrix,
          lambda row, k: _singular(images, word, k))
    return kinds


def _fixed_points(images: SampleImages, word: str, guard) -> tuple:
    """images.fixed_points(word), recording the guards of its two
    ProjectivePoints."""
    first, second, first_zero, second_zero = images.fixed_points(word)
    guard(first_zero, DegenerateConfiguration, _ZERO)
    guard(second_zero, DegenerateConfiguration, _ZERO)
    return first, second


def _selection(images: SampleImages, start: str | dict, failures: _Failures,
               phase: int = 0) -> list:
    """(chosen, other) PointArrays, (n,), of every cuff: start resolved
    at the first sample when it is a label, else tracked to it, and
    tracked from sample to sample after that.

    Per cuff the guards of resolve_endpoints and track_endpoints, in
    their order: the cuff's kind (identity and parabolic raise
    NotAdapted), its fixed points, and the tracking test, which fails
    when the previous point is not clearly closer to one of the new
    fixed points than they are to each other.  Tracking is the one
    scalar loop: each step reads the previous choice, and picks one of
    two chordal distances computed for all samples at once.
    """
    pd = images.pd
    n = len(images)
    if isinstance(start, str) and start not in _LABELS:
        failures.guards(-1, 1)(np.arange(n) == 0, PleatbendError,
                               f"unknown endpoint label {start!r}")
        start = _LABELS[0]
    out = []
    for j, cuff in enumerate(pd.cuffs):
        guard = failures.guards(0, j, phase)
        kinds = _kinds(images, cuff.word, guard)
        guard((kinds == _IDENTITY) | (kinds == _PARABOLIC), NotAdapted,
              lambda row, k, cuff=cuff, kinds=kinds:
              f"cuff {cuff.id!r} is {KINDS[kinds[k]]}")
        pts = _fixed_points(images, cuff.word, guard)
        gap = chordal_array(*pts).tolist()
        # from each fixed point of sample k - 1 to each of sample k, at k
        steps = [[[math.nan] + chordal_array(a[:-1], b[1:]).tolist()
                  for b in pts] for a in pts]
        if isinstance(start, str):
            state = _LABELS.index(start)
            begin = 1
        else:
            prev = PointArray.of([start[cuff.id][0]])
            steps[0] = [[chordal_array(prev, b[:1]).item()] + d[1:]
                        for b, d in zip(pts, steps[0])]
            state = 0
            begin = 0
        choice = np.zeros(n, dtype=bool)   # True: the second fixed point
        choice[0] = state
        failed = np.zeros(n, dtype=bool)
        for k in range(begin, n):
            d1, d2 = steps[state][0][k], steps[state][1][k]
            if min(d1, d2) >= 0.45 * gap[k]:
                failed[k] = True
                message = (f"endpoint of cuff {cuff.id!r} moved "
                           f"{min(d1, d2):.3g} against a fixed-point gap of "
                           f"{gap[k]:.3g}")
                break
            state = 0 if d1 <= d2 else 1
            choice[k] = state
        if failed.any():
            guard(failed, OrientationTrackingFailure, message)
        first, second = pts
        out.append((second.select(choice, first),
                    first.select(choice, second)))
    return out


def start_endpoints(images: SampleImages, forward) -> dict:
    """Start selection of an orientation on a one-sample pass: cuff id
    -> (zeta, other), the attracting fixed point chosen where forward
    is True, the repelling one elsewhere.  Every cuff must be
    loxodromic."""
    failures = _Failures()
    points = []
    for j, cuff in enumerate(images.pd.cuffs):
        guard = failures.guards(0, j)
        kinds = _kinds(images, cuff.word, guard)
        guard(kinds != _LOXODROMIC, OrientationTrackingFailure,
              lambda row, k, cuff=cuff, kinds=kinds:
              f"cuff {cuff.id!r} is {KINDS[kinds[k]]} at the path start; "
              "orientation endpoints need a loxodromic cuff")
        points.append(_fixed_points(images, cuff.word, guard))
    failures.raise_first()
    zeta = {}
    for bit, cuff, (att, rep) in zip(forward, images.pd.cuffs, points):
        att, rep = att.point(0), rep.point(0)
        zeta[cuff.id] = (att, rep) if bit else (rep, att)
    return zeta


def _selected(images: SampleImages, start: str | dict) -> dict:
    """_selection on a one-sample pass, as ProjectivePoints."""
    failures = _Failures()
    selection = _selection(images, start, failures)
    failures.raise_first()
    return {c.id: (chosen.point(0), other.point(0))
            for c, (chosen, other) in zip(images.pd.cuffs, selection)}


def resolve_endpoints(rep: Representation | SampleImages,
                      pd: PantsDecomposition, start: str) -> dict:
    """Chosen and unchosen fixed point per cuff: cuff id -> (zeta, other).

    start is "attracting", which chooses the first point reported by
    fixed_points (for a loxodromic cuff, the attracting one), or
    "repelling", which chooses the second.
    """
    if start not in _LABELS:
        raise PleatbendError(f"unknown endpoint label {start!r}")
    return _selected(_one_sample(rep, pd), start)


def track_endpoints(rep: Representation | SampleImages,
                    pd: PantsDecomposition, previous: dict) -> dict:
    """Continue an endpoint selection to a nearby representation.

    Each cuff's new fixed points are matched to the previously chosen
    one by chordal distance; if the previous point is not clearly
    closer to one of them than the points are to each other, tracking
    is ambiguous and fails.
    """
    return _selected(_one_sample(rep, pd), previous)


# ---------------------------------------------------------------------------
# adaptedness


@dataclass(frozen=True)
class PairSharing:
    pants: int
    slots: tuple[int, int]
    tr2_commutator: complex
    flagged: bool


@dataclass(frozen=True)
class AdaptednessReport:
    adapted: bool
    cuff_kinds: dict
    bad_cuffs: tuple[str, ...]
    pair_reports: tuple[PairSharing, ...]

    def flagged_pairs(self) -> tuple[PairSharing, ...]:
        return tuple(r for r in self.pair_reports if r.flagged)

    def summary(self) -> str:
        if self.adapted:
            return "adapted"
        parts = []
        for c in self.bad_cuffs:
            parts.append(f"cuff {c!r} is {self.cuff_kinds[c]}")
        for r in self.flagged_pairs():
            parts.append(f"pants {r.pants} slots {r.slots} share an endpoint "
                         f"(tr2 commutator {r.tr2_commutator:.6g})")
        return "; ".join(parts)


def shared_endpoint_check(m1: MoebiusMap, m2: MoebiusMap,
                          eps_class: float = EPS_CLASS) -> tuple[bool, complex]:
    """Do two maps share a fixed point?  Tested on the commutator trace.

    Two non-trivial maps have a common fixed point exactly when their
    commutator has squared trace 4; the test flags |tr^2 - 4| below
    eps_class.
    """
    comm = m1 @ m2 @ m1.inverse() @ m2.inverse()
    tr2 = trace_squared(comm)
    return abs(tr2 - 4) < eps_class, tr2


def _flagged(images: SampleImages) -> np.ndarray:
    """(n, rows, 3): where a slot commutator's tr^2 lies within
    eps_class of 4."""
    t = images.traces
    return np.hypot(t.real - 4.0, t.imag) < images.eps_class


def _degenerate(images: SampleImages) -> np.ndarray:
    """(n,): where some cuff is the identity or parabolic."""
    return np.logical_or.reduce(
        [np.isin(images.kind(c.word), (_IDENTITY, _PARABOLIC))
         for c in images.pd.cuffs])


def _adaptedness(images: SampleImages, k: int) -> AdaptednessReport:
    """check_adapted at sample k."""
    pd = images.pd
    kinds = {}
    for c in pd.cuffs:
        code = images.kind(c.word)[k]
        if code < 0:
            raise SingularMatrix(_singular(images, c.word, k))
        kinds[c.id] = KINDS[code]
    bad = [c.id for c in pd.cuffs
           if images.kind(c.word)[k] in (_IDENTITY, _PARABOLIC)]
    flagged = _flagged(images)[k]
    reports = []
    for p, words in enumerate(pd.slot_words):
        r = images.rows.index(words)
        for c, (slots, tr2) in enumerate(zip(_PAIRS,
                                             images.traces[k, r].tolist())):
            reports.append(PairSharing(pants=p, slots=slots,
                                       tr2_commutator=tr2,
                                       flagged=bool(flagged[r, c])))
    adapted = not bad and not any(r.flagged for r in reports)
    return AdaptednessReport(adapted=adapted, cuff_kinds=kinds,
                             bad_cuffs=tuple(bad),
                             pair_reports=tuple(reports))


def check_adapted(rep: Representation | SampleImages,
                  pd: PantsDecomposition) -> AdaptednessReport:
    """Adaptedness of a representation to a decomposition.

    Every cuff image must be non-trivial and non-parabolic, and the
    three slot words of each pants must have pairwise disjoint fixed
    sets (commutator squared-trace test), read from the commutators
    that sample_images stored; both tests use the pass's eps_class.
    """
    return _adaptedness(_one_sample(rep, pd), 0)


# ---------------------------------------------------------------------------
# placement and the Schlafli terms


@dataclass(frozen=True)
class TruncationConvention:
    """One horoball scale per cuff; both sides of a cuff share it.

    The cuff's horoball is centered at the chosen spiraling endpoint
    and has Euclidean height s in the frame taking the cuff axis to
    (0, infinity); scaling s by e^delta lengthens every truncated leaf
    end at that cuff by delta (larger s is a smaller horoball).
    """

    scales: dict

    @classmethod
    def uniform(cls, pd: PantsDecomposition,
                scale: float = 1.0) -> "TruncationConvention":
        return cls(scales={c.id: float(scale) for c in pd.cuffs})

    def rescaled(self, cuff_id: str, factor: float) -> "TruncationConvention":
        out = dict(self.scales)
        out[cuff_id] = out[cuff_id] * factor
        return TruncationConvention(scales=out)


def _cuff_lengths(images: SampleImages, cuff) -> list[complex]:
    """complex_length of an elliptic or loxodromic cuff at every sample."""
    m = images.maps[cuff.word]
    # trace / 2.0
    half = _complex(*_over(m.re[0, 0] + m.re[1, 1], m.im[0, 0] + m.im[1, 1],
                           2.0))
    out = []
    for z, kind in zip(half.tolist(), images.kind(cuff.word).tolist()):
        lam = 2.0 * cmath.acosh(z)
        out.append(complex(0.0 if kind == _ELLIPTIC else lam.real,
                           reduce_angle(lam.imag)))
    return out


def _libm(f, *arrays) -> np.ndarray:
    """f on the Python values of arrays, element by element, as an array
    of their shape: the C library's transcendentals, which numpy's
    vectorized ones do not repeat bit for bit."""
    return np.array(list(map(f, *(a.ravel().tolist() for a in arrays))),
                    dtype=float).reshape(np.shape(arrays[0]))


def _truncated_lengths(a: PointArray, b: PointArray, witness_a: tuple,
                       witness_b: tuple) -> tuple:
    """truncated_geodesic_length at every element: the lengths, and its
    checks as (mask, error, message) in its order."""
    frame, coincide = MoebiusArray.normalizing(a, b)
    za_r, za_i, ta = frame.apply_interior(*witness_a)
    _, _, tb = frame.apply_interior(*witness_b)
    with np.errstate(all="ignore"):
        depth = (_sq(np.hypot(za_r, za_i)) + _sq(ta)) / ta
    collapsed = (depth <= 0) | (tb <= 0)
    lengths = _libm(lambda h, d: math.log(h) - math.log(d),
                    np.where(collapsed, 1.0, tb),
                    np.where(collapsed, 1.0, depth))
    return lengths, [(coincide, DegenerateConfiguration, _COINCIDE),
                     (collapsed, DegenerateConfiguration,
                      "horoball witness collapsed to the boundary")]


def _skip(mask, error, message) -> None:
    """A guard recorder for a term whose failures are not read."""


def _only(i: int, guard) -> list:
    """Recorders for the three leaves of a pants that keep leaf i's
    guards only."""
    return [guard if k == i else _skip for k in range(3)]


class _Geometry:
    """Plaques and Schlafli terms of a pass's samples under endpoint
    chains, on arrays.

    zeta[j] holds cuff j's (chosen, other) points, (chains, n), one row
    per chain.  A pattern takes one chain for every cuff of a support
    (sorted cuff indices); the patterns of a support run in
    itertools.product order, so row 0 takes chain 0 everywhere.  xi[p]
    holds the three vertices of pants p, each (patterns of its cuffs,
    n), once place() has run.  Every method records its guards in the
    order of the scalar step it repeats.
    """

    def __init__(self, images: SampleImages, selections: list,
                 lam: Lamination):
        pd = images.pd
        self.images = images
        self.pd = pd
        self.lam = lam
        self.maps = images.maps
        self.chains = len(selections)
        self.index = {c.id: j for j, c in enumerate(pd.cuffs)}
        self.zeta = [tuple(stack_points([sel[j][s] for sel in selections])
                           for s in (0, 1)) for j in range(len(pd.cuffs))]
        self.xi = []
        self.angles = {}     # single realizations: key -> angle or failure
        self._patterns = {}
        self._witnesses = {}

    def patterns(self, support) -> np.ndarray:
        """Every pattern of chains on support, (patterns, len(support))."""
        pats = self._patterns.get(len(support))
        if pats is None:
            pats = self._patterns[len(support)] = np.array(
                list(itertools.product(range(self.chains),
                                       repeat=len(support))),
                dtype=np.intp).reshape(-1, len(support))
        return pats

    def _vertices(self, p: int, support, pats: np.ndarray) -> list:
        """xi[p] at the patterns pats of support (a superset of the
        cuffs of pants p)."""
        cuffs = self.lam.pants_cuffs[p]
        rows = np.zeros(len(pats), dtype=np.intp)
        for j in cuffs:
            rows = rows * self.chains + pats[:, support.index(j)]
        return [x[rows] for x in self.xi[p]]

    def place(self, failures: _Failures) -> None:
        """Place every pants at every pattern of chains on its cuffs.

        Slot k's vertex is the chosen endpoint of its cuff carried by
        the slot's conjugator.  The guards raise DegenerateTriangle
        where two vertices of a plaque are closer than EPS_SEP: of the
        upper plaque, or of the lower one, xi_2 pushed by the slot-1
        holonomy.
        """
        for p, cuffs in enumerate(self.lam.pants_cuffs):
            guard = failures.guards(2, p)
            pats = self.patterns(cuffs)
            row = []
            for end in self.pd.pants[p].cuff_ends:
                j = self.index[end.cuff]
                base = self.zeta[j][0][pats[:, cuffs.index(j)]]
                if end.conjugator:
                    base, zero = self.maps[end.conjugator].apply(base)
                    guard(zero, DegenerateConfiguration, _ZERO)
                row.append(base)
            self._plaque_guards(p, row, guard)
            down, zero = self.maps[self.pd.slot_words[p][1]].apply(row[2])
            guard(zero, DegenerateConfiguration, _ZERO)
            self._plaque_guards(p, row[:2] + [down], guard)
            self.xi.append(row)

    @staticmethod
    def _plaque_guards(p: int, tri: list, guard) -> None:
        for i in range(3):
            d = chordal_array(tri[i], tri[(i + 1) % 3])
            guard(d < EPS_SEP, DegenerateTriangle,
                  lambda row, k, d=d: f"plaque of pants {p} has vertices "
                                      f"{d[row, k]:.3g} apart")

    def leaf_angles(self, p: int, guards: list) -> np.ndarray:
        """leaf_bending of the leaves (p, 0), (p, 1), (p, 2) at every
        pattern and sample, (3, patterns, n); guards[i] records leaf
        i's guards."""
        xi = stack_points(self.xi[p])
        e1, e2, up = (xi[[(i + s) % 3 for i in range(3)]] for s in range(3))
        hol = [self.maps[self.pd.slot_words[p][(i + 1) % 3]] for i in range(3)]
        down, zero = MoebiusArray(
            np.stack([m.re for m in hol], axis=2)[:, :, :, None],
            np.stack([m.im for m in hol], axis=2)[:, :, :, None],
            None).apply(up)
        re, im, checks = cross_ratio_array(e1, e2, up, down)
        far = ((re == 0.0) & (im == 0.0)) | np.isinf(re) | np.isinf(im)
        for i, guard in enumerate(guards):
            guard(zero[i], DegenerateConfiguration, _ZERO)
            for label, mask in checks:
                guard(mask[i], DegenerateConfiguration,
                      f"coincident points {label}")
            guard(far[i], DegenerateConfiguration,
                  f"far vertices of leaf ({p}, {i}) collide with its "
                  "endpoints")
        return _libm(lambda z: reduce_angle(math.pi - cmath.phase(z)),
                     _complex(re, im))

    def _cuff_witness(self, j: int, scale: float) -> tuple:
        """Cuff j's horoball witness for each chain: the point at height
        scale above the chosen endpoint, in the frame taking (other,
        chosen) to (0, infinity), as (z real, z imag, t), each (chains,
        n); and where that frame's normalizing_map raises."""
        key = (j, scale)
        if key not in self._witnesses:
            zeta, other = self.zeta[j]
            frame, coincide = MoebiusArray.normalizing(other, zeta)
            self._witnesses[key] = (
                frame.inverse().apply_interior(0.0, 0.0, float(scale)),
                coincide)
        return self._witnesses[key]

    def _end_witness(self, p: int, slot: int,
                     conv: TruncationConvention) -> tuple:
        """The witness of the cuff at a slot of pants p, carried by the
        slot's conjugator, at every pattern of the pants: the one
        truncated_length reads at that leaf end, and its checks as
        (mask, error, message).  Each is found once per cuff and scale,
        and once per slot and scale."""
        end = self.pd.pants[p].cuff_ends[slot]
        cuffs = self.lam.pants_cuffs[p]
        j = self.index[end.cuff]
        chains = self.patterns(cuffs)[:, cuffs.index(j)]
        scale = conv.scales[end.cuff]
        witness, coincide = self._cuff_witness(j, scale)
        checks = [(coincide[chains], DegenerateConfiguration, _COINCIDE)]
        if scale <= 0:
            checks.append((np.ones_like(coincide[chains]), PleatbendError,
                           f"horoball scale for {end.cuff!r} must be "
                           "positive"))
        key = (p, slot, scale)
        if key not in self._witnesses:
            witness = tuple(x[chains] for x in witness)
            if end.conjugator:
                witness = self.maps[end.conjugator].apply_interior(*witness)
            self._witnesses[key] = witness
        return self._witnesses[key], checks

    def leaf_lengths(self, p: int, conv: TruncationConvention,
                     guards: list) -> np.ndarray:
        """truncated_length of the leaves (p, 0), (p, 1), (p, 2) at every
        pattern and sample, (3, patterns, n); guards[i] records leaf
        i's guards."""
        ends = [self._end_witness(p, slot, conv) for slot in range(3)]
        nxt = [1, 2, 0]
        for i, guard in enumerate(guards):
            for slot in (i, nxt[i]):
                for check in ends[slot][1]:
                    guard(*check)
        xi = stack_points(self.xi[p])
        lengths, checks = _truncated_lengths(
            xi, xi[nxt],
            tuple(np.stack([w[c] for w, _ in ends]) for c in range(3)),
            tuple(np.stack([ends[i][0][c] for i in nxt]) for c in range(3)))
        for i, guard in enumerate(guards):
            for mask, error, message in checks:
                guard(mask[i], error, message)
        return lengths

    def cuff_angles(self, leaf, guard, crossing: MoebiusArray | None = None
                    ) -> list:
        """cuff_bending of a cuff leaf at every pattern of its support
        and every sample; crossing replaces the winding-0 crossing word's
        images."""
        pd = self.pd
        cuff_id = leaf.key
        (pp, kp), (pm, km) = pd.signed_ends_of(cuff_id)
        v_plus = pd.pants[pp].cuff_ends[kp].conjugator
        W = crossing if crossing is not None \
            else self.maps[pd.crossing_words[cuff_id]]
        j = self.index[cuff_id]
        pats = self.patterns(leaf.support)
        chain = pats[:, leaf.support.index(j)]
        # the chosen and the other endpoint, stacked on a new first axis;
        # so below are the four plaque vertices, each step done for all
        # of them at once and its guards recorded in the scalar order
        ends = stack_points([self.zeta[j][0][chain], self.zeta[j][1][chain]])
        if v_plus:
            ends, zero = self.maps[v_plus].apply(ends)
            guard(zero[0], DegenerateConfiguration, _ZERO)
            guard(zero[1], DegenerateConfiguration, _ZERO)
        frame, coincide = MoebiusArray.normalizing(ends[1], ends[0])
        guard(coincide, DegenerateConfiguration, _COINCIDE)
        xa = self._vertices(pp, leaf.support, pats)
        xb = self._vertices(pm, leaf.support, pats)
        carried, carried_zero = W.apply(
            stack_points([xb[(km + 1) % 3], xb[(km + 2) % 3]]))
        # a1, a2 and W b1, W b2 in the frame of the cuff; to_complex is
        # infinity within EPS_NUM, else z1 / z2
        q, zero = frame.apply(stack_points([xa[(kp + 1) % 3],
                                            xa[(kp + 2) % 3],
                                            carried[0], carried[1]]))
        with np.errstate(all="ignore"):
            z = _quot(q.z1r, q.z1i, q.z2r, q.z2i)
            on_axis = ((np.hypot(q.z2r, q.z2i) < EPS_NUM) | np.isinf(z[0])
                       | np.isinf(z[1]))
        axis = f"plaque vertex lies on the axis of cuff {cuff_id!r}"
        for c in range(4):
            if c >= 2:
                guard(carried_zero[c - 2], DegenerateConfiguration, _ZERO)
            guard(zero[c], DegenerateConfiguration, _ZERO)
            guard(on_axis[c], DegenerateConfiguration, axis)
        dir_a = (z[0][0] - z[0][1], z[1][0] - z[1][1])
        dir_b = (z[0][2] - z[0][3], z[1][2] - z[1][3])
        guard((np.hypot(*dir_a) < 1e-30) | (np.hypot(*dir_b) < 1e-30),
              DegenerateConfiguration,
              f"degenerate plaque directions at cuff {cuff_id!r}")
        with np.errstate(all="ignore"):
            ratio = _complex(*_quot(*dir_b, *dir_a))
        return _libm(lambda z: reduce_angle(cmath.phase(z)), ratio)

    def cuff_term(self, leaf, guard) -> tuple:
        """schlafli_term of a cuff leaf: (angles, lengths), each
        (patterns of its support, n)."""
        angles = self.cuff_angles(leaf, guard)
        lengths = [z.real for z in _cuff_lengths(self.images,
                                                 self.pd.cuff(leaf.key))]
        return angles, np.broadcast_to(lengths, angles.shape)

    def terms(self, conv: TruncationConvention, failures: _Failures) -> list:
        """schlafli_term of every leaf of the lamination, in its order:
        (angles, lengths), each (patterns of the leaf's support, n).
        The three leaves of a pants are computed together."""
        out = {}
        blocks = {leaf.key: failures.guards(3, t)
                  for t, leaf in enumerate(self.lam.leaves)}
        for leaf in self.lam.leaves:
            if isinstance(leaf.key, str):
                out[leaf.key] = self.cuff_term(leaf, blocks[leaf.key])
        for p in range(len(self.pd.pants)):
            guards = [blocks[p, i] for i in range(3)]
            angles = self.leaf_angles(p, guards)
            lengths = self.leaf_lengths(p, conv, guards)
            for i in range(3):
                out[p, i] = angles[i], lengths[i]
        return [out[leaf.key] for leaf in self.lam.leaves]


def path_terms(images: SampleImages, starts: list, lam: Lamination,
               conv: TruncationConvention) -> tuple:
    """Every Schlafli term of lam at every sample of a pass, for the
    endpoint chains that start from starts (chain 0 from a label or a
    selection, chain 1 from a selection).

    Returns (patterns, terms, failures): patterns(support) lists the
    patterns of chains on a support, terms[t] is (angles, lengths) of
    leaf t, each (patterns of its support, n), and failures holds every
    guard the pass met, in the scalar order: the sample's evaluation,
    the endpoint selection of each chain, the adaptedness check,
    placement, and the terms.
    """
    failures = _Failures()
    failures.guards(-1, 0)(~images.evaluated(), SampleEvaluationFailure,
                           lambda row, k: str(images.failure(k)))
    selections = [_selection(images, start, failures, phase)
                  for phase, start in enumerate(starts)]
    failures.guards(1, 0)(
        _degenerate(images) | _flagged(images).any(axis=(1, 2)), NotAdapted,
        lambda row, k: _adaptedness(images, k).summary())
    geometry = _Geometry(images, selections, lam)
    geometry.place(failures)
    return geometry.patterns, geometry.terms(conv, failures), failures


# ---------------------------------------------------------------------------
# realization


@dataclass(frozen=True)
class PleatedRealization:
    """One representation realized: its adaptedness report, the chosen
    endpoints (cuff id -> (chosen, other)), the plaque vertices
    xi[p][k] and the complex cuff lengths, with the one-sample geometry
    that every term of it reads."""

    geometry: _Geometry
    report: AdaptednessReport
    zeta: dict
    xi: tuple
    cuff_lengths: dict

    @property
    def pd(self) -> PantsDecomposition:
        return self.geometry.pd


def realize(rep: Representation | SampleImages, pd: PantsDecomposition,
            endpoints: str | dict = "attracting",
            eps_class: float = EPS_CLASS) -> PleatedRealization:
    """Realize the plaques of every pants for an adapted representation.

    endpoints is a start label for resolve_endpoints ("attracting" or
    "repelling") or an already-resolved dict from resolve_endpoints or
    track_endpoints.  A bare representation is evaluated by a
    one-sample pass classifying at eps_class.  Raises
    SampleEvaluationFailure when the word images cannot be evaluated,
    NotAdapted when the adaptedness check fails and DegenerateTriangle
    when realized plaque vertices collide.
    """
    images = _one_sample(rep, pd, eps_class)
    report = check_adapted(images, pd)
    if not report.adapted:
        raise NotAdapted(report.summary())
    zeta = endpoints if isinstance(endpoints, dict) \
        else resolve_endpoints(images, pd, endpoints)
    selection = [tuple(PointArray.of([pt]) for pt in zeta[c.id])
                 for c in pd.cuffs]
    geometry = _Geometry(images, [selection], build_lamination(pd))
    failures = _Failures()
    geometry.place(failures)
    failures.raise_first()
    xi = tuple(tuple(v.point((0, 0)) for v in row) for row in geometry.xi)
    return PleatedRealization(
        geometry=geometry, report=report, zeta=zeta, xi=xi,
        cuff_lengths={c.id: _cuff_lengths(images, c)[0] for c in pd.cuffs})


def _one_term(real: PleatedRealization, read) -> float:
    """read(geometry, guard) at the realization's one sample, raising
    the first failure of its guards."""
    failures = _Failures()
    values = read(real.geometry, failures.guards(3, 0))
    failures.raise_first()
    return float(values[0, 0])


def _angle(real: PleatedRealization, key, read) -> float:
    """_one_term of a bending angle, found once per realization and key
    (arc_bending reads the same few angles over and over)."""
    angles = real.geometry.angles
    if key not in angles:
        try:
            angles[key] = _one_term(real, read)
        except PleatbendError as exc:
            angles[key] = exc
    if isinstance(angles[key], PleatbendError):
        raise type(angles[key])(*angles[key].args)
    return angles[key]


def leaf_bending(real: PleatedRealization, leaf) -> float:
    """Exterior bending angle across one spiral leaf, in (-pi, pi].

    The two plaques adjacent to the leaf share its endpoints; the angle
    is read off the cross-ratio position of the far vertices: 0 when
    the plaques form one flat ideal quadrilateral.
    """
    p, i = leaf
    return _angle(real, (p, i),
                  lambda g, guard: g.leaf_angles(p, _only(i, guard))[i])


def cuff_bending(real: PleatedRealization, cuff_id: str,
                 winding: int = 0) -> float:
    """Bending angle picked up by an arc crossing a cuff, in (-pi, pi].

    Measured between the plaque of the positive cuff end and the plaque
    of the negative end transported across the cuff; winding adds extra
    passes around the cuff, shifting the angle by multiples of the
    cuff's imaginary length.  The word carrying the plaque across with
    a winding is outside the pass, so it is evaluated on its own.
    """
    pd = real.pd
    cuff = pd.cuff(cuff_id)
    leaf = real.geometry.lam.leaves[pd.cuff_index(cuff_id)]

    def read(geometry, guard):
        crossing = None
        if winding != 0:
            (pp, kp), (pm, km) = pd.signed_ends_of(cuff_id)
            v_plus = pd.pants[pp].cuff_ends[kp].conjugator
            v_minus = pd.pants[pm].cuff_ends[km].conjugator
            core = (cuff.word * winding if winding > 0
                    else invert_word(cuff.word) * (-winding))
            crossing = MoebiusArray.of([evaluate_word(
                geometry.images.reps[0],
                v_plus + core + invert_word(v_minus))])
        return geometry.cuff_angles(leaf, guard, crossing)
    return _angle(real, (cuff_id, winding), read)


def arc_bending(real: PleatedRealization, arc: TransverseArc) -> float:
    """Total bending along a transverse arc, reduced mod 2 pi.

    Sums signed leaf and cuff contributions in crossing order; the
    value is additive over concatenation before reduction.
    """
    arc.validate(real.pd)
    total = 0.0
    for x in arc.crossings:
        if isinstance(x, LeafCrossing):
            total += x.direction * leaf_bending(real, (x.pants, x.leaf))
        elif isinstance(x, CuffCrossing):
            total += x.direction * cuff_bending(real, x.cuff, x.winding)
    return reduce_angle(total)


# ---------------------------------------------------------------------------
# truncation


def truncated_geodesic_length(a: ProjectivePoint, b: ProjectivePoint,
                              witness_a: tuple[complex, float],
                              witness_b: tuple[complex, float]) -> float:
    """Signed length of the geodesic a -> b between two horoballs.

    Each horoball is described by one interior point on its horosphere;
    the horoball at a is tangent at a, the one at b tangent at b.  The
    value is negative when the horoballs overlap across the geodesic.
    """
    def array(witness):
        z, t = complex(witness[0]), witness[1]
        return tuple(np.array([[x]], dtype=float) for x in (z.real, z.imag, t))

    failures = _Failures()
    guard = failures.guards(3, 0)
    lengths, checks = _truncated_lengths(
        PointArray.of([a])[None], PointArray.of([b])[None],
        array(witness_a), array(witness_b))
    for check in checks:
        guard(*check)
    failures.raise_first()
    return float(lengths[0, 0])


def truncated_length(real: PleatedRealization, leaf,
                     conv: TruncationConvention) -> float:
    """Length of a spiral leaf between the horoballs at its two ends."""
    p, i = leaf
    return _one_term(
        real, lambda g, guard: g.leaf_lengths(p, conv, _only(i, guard))[i])


@dataclass(frozen=True)
class BendingData:
    """All Schlafli ingredients of one realization."""

    leaf_angles: dict               # (pants, i) -> angle
    cuff_angles: dict               # cuff id -> angle
    leaf_lengths: dict              # (pants, i) -> truncated length
    cuff_lengths: dict              # cuff id -> real translation length


def schlafli_term(real: PleatedRealization, key,
                  conv: TruncationConvention) -> tuple[float, float]:
    """Angle and length of one Schlafli term of a realization.

    key is a cuff id (bending angle, real translation length) or a
    (pants, i) leaf key (bending angle, truncated length).
    """
    geometry = real.geometry
    failures = _Failures()
    guard = failures.guards(3, 0)
    if isinstance(key, str):
        leaf = geometry.lam.leaves[real.pd.cuff_index(key)]
        angles, lengths = geometry.cuff_term(leaf, guard)
    else:
        p, i = key
        angles = geometry.leaf_angles(p, _only(i, guard))[i]
        lengths = geometry.leaf_lengths(p, conv, _only(i, guard))[i]
    failures.raise_first()
    return float(angles[0, 0]), float(lengths[0, 0])


def bending_data(real: PleatedRealization,
                 conv: TruncationConvention | None = None) -> BendingData:
    if conv is None:
        conv = TruncationConvention.uniform(real.pd)
    failures = _Failures()
    terms = real.geometry.terms(conv, failures)
    failures.raise_first()
    values = {leaf.key: (float(angles[0, 0]), float(lengths[0, 0]))
              for leaf, (angles, lengths)
              in zip(real.geometry.lam.leaves, terms)}
    cuffs = {k: v for k, v in values.items() if isinstance(k, str)}
    leaves = {k: v for k, v in values.items() if not isinstance(k, str)}
    return BendingData(leaf_angles={k: v[0] for k, v in leaves.items()},
                       cuff_angles={k: v[0] for k, v in cuffs.items()},
                       leaf_lengths={k: v[1] for k, v in leaves.items()},
                       cuff_lengths={k: v[1] for k, v in cuffs.items()})
