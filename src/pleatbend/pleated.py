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
evaluates the words at every column of a generator array (a path's, or
one representation's) in one array pass, and every later stage reads
it through moebius' array kernel (MoebiusArray, PointArray), once for
all its items (the words of a depth, the cuffs, the pants or the
leaves) stacked on one more array axis, so its number of numpy calls
does not grow with the genus.  A path and a single realization are set
up and placed one way (_placed): endpoint selection, the adaptedness
check and placement, which keeps the carried and pushed vertices that
the term stages read.  The arithmetic is numpy's (np.hypot, np.arctan2,
np.log, np.arccosh and reduce_angle_array) except for the complex
products and quotients, which keep CPython's rounding, so the terms
are not the scalar functions' bit for bit: tests/test_kernel.py holds
each kind of term to a stated accuracy against a 50-digit oracle.
Endpoint tracking is closed form too (_track), so no stage loops over
the samples.

Every guard is computed as a mask over the samples (and the endpoint
patterns), and _Failures keeps the one with the least key (phase,
sample, stage, item, pattern, guard), with its type and message.
Arithmetic errors of the scalar code (abs or ** 2 overflowing, a
division by an exact zero) are not guards: past the float range the
arrays carry inf or NaN instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfiguration, DegenerateTriangle,
                     InvalidDecomposition, NotAdapted,
                     OrientationTrackingFailure, PleatbendError,
                     SampleEvaluationFailure, SingularMatrix)
from .moebius import (_IDENTITY, _LOXODROMIC, _PARABOLIC, EPS_CLASS, EPS_NUM,
                      KINDS, MoebiusArray, MoebiusMap, PointArray,
                      ProjectivePoint, _abs2, _add, _complex, _mul, _quot,
                      chordal_array, cross_ratio_array, reduce_angle,
                      reduce_angle_array, stack_points)
from .representation import (Representation, _matrices_of, _word_images,
                             commutator_trace)
from .topology import (CuffCrossing, LeafCrossing, PantsDecomposition,
                       TransverseArc, build_lamination)

EPS_SEP = 1e-9
_TINY = np.finfo(float).tiny   # the least normal float

_LABELS = ("attracting", "repelling")
_PAIRS = ((0, 1), (1, 2), (2, 0))    # slot pairs of check_adapted
_ZERO = "homogeneous coordinates (0, 0)"     # ProjectivePoint's failure
_COINCIDE = "normalizing_map endpoints coincide"


class SampleImages:
    """Images of the pipeline's words at n samples, from one array pass.

    words lists every word the pipeline reads (cuff words, slot words,
    conjugators and the winding-0 crossing words, pd.crossing_words),
    index takes each to its place there, and
    stack holds their images, (2, 2, words, n), whose entries agree with
    evaluate_word's to within 8 eps per product (see MoebiusArray).
    traces holds the tr^2 of the slot commutators that check_adapted
    reads, (n, len(rows), 3) for the distinct slot rows in rows and the
    pairs (0, 1), (1, 2), (2, 0), as shared_endpoint_check computes it.
    ok, stack.ok, (words, n), is False where a word would raise in the
    scalar arithmetic or is not finite, and failure() names the first
    of them and the stored sample, samples[k] for the pass's sample k.
    cuff_maps stacks the images of the cuff words, (2, 2, cuffs, n);
    kinds, (cuffs, n), and cuff_points, the first and second fixed
    points (cuffs, n) and the masks where their ProjectivePoints would
    raise, are read off them at once, at EPS_CLASS, the classification
    tolerance of every check.  lamination is build_lamination(pd).
    """

    def __init__(self, pd: PantsDecomposition, words: list,
                 stack: MoebiusArray, rows: list, traces: np.ndarray,
                 samples):
        self.pd = pd
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.stack = stack
        self.rows = rows
        self.traces = traces
        self.ok = stack.ok
        self.samples = samples
        self.cuff_maps = stack.take([self.index[c.word] for c in pd.cuffs])
        self.kinds = self.cuff_maps.classify()
        self.cuff_points = self.cuff_maps.fixed_points(self.kinds)

    def __len__(self) -> int:
        return self.ok.shape[1]

    @functools.cached_property
    def lamination(self):
        return build_lamination(self.pd)

    def evaluated(self) -> np.ndarray:
        """Where every word of a sample was evaluated."""
        return self.ok.all(axis=0)

    def failure(self, k: int) -> SampleEvaluationFailure | None:
        """The evaluation failure of sample k, naming the first word that
        failed there, or None."""
        bad = np.flatnonzero(~self.ok[:, k])
        if not len(bad):
            return None
        return SampleEvaluationFailure(
            f"sample {self.samples[k]}: word {self.words[bad[0]]!r} is "
            "singular, overflows or is not finite")


def sample_images(generators, matrices: np.ndarray,
                  pd: PantsDecomposition, samples=None) -> SampleImages:
    """The SampleImages of the samples matrices, the images of
    generators (2, 2, generators, n), by one array pass; samples lists
    the stored position of each, 0 to n - 1 when not given.

    Every word the sample pipeline reads is evaluated at all samples at
    once with MoebiusArray, folding the words level by level
    (_word_images) as evaluate_word multiplies it, and the tr^2 of every
    slot commutator is read off those images as shared_endpoint_check
    reads it.  A letter that is not one of the generators raises
    UnknownLetter.  A sample at which a word would raise in the scalar
    arithmetic is not raised here: its consumers raise
    SampleEvaluationFailure when they reach it, so they meet the
    failures of earlier samples first.  A tr^2 that is not finite is
    not flagged: slot words are conjugates of cuff words, and the
    classification refuses a cuff whose tr^2 is not finite.
    """
    words = [c.word for c in pd.cuffs]
    words += [w for row in pd.slot_words for w in row]
    words += [e.conjugator for pants in pd.pants for e in pants.cuff_ends]
    words += pd.crossing_words.values()
    words = list(dict.fromkeys(words))
    stack = _word_images(generators, matrices, words)
    rows = list(dict.fromkeys(pd.slot_words))
    index = {w: i for i, w in enumerate(words)}
    (a1, b1, c1, d1), (a2, b2, c2, d2) = (
        stack.take([[index[row[pair[s]]] for pair in _PAIRS]
                    for row in rows])._entries() for s in (0, 1))
    with np.errstate(all="ignore"):
        # shared_endpoint_check's complex arithmetic, step by step
        ta, tb = _add(a1, d1), _add(a2, d2)
        tab = _add(_add(_add(_mul(*a1, *a2), _mul(*b1, *c2)),
                        _mul(*c1, *b2)), _mul(*d1, *d2))
        t = _add(_add(_mul(*ta, *ta), _mul(*tb, *tb)), _mul(*tab, *tab))
        u = _mul(*_mul(*ta, *tb), *tab)
        t = t[0] - u[0] - 2.0, t[1] - u[1]
        traces = _complex(*_mul(*t, *t))
    return SampleImages(pd, words, stack, rows, np.moveaxis(traces, -1, 0),
                        samples or range(matrices.shape[3]))


def _one_sample(rep: Representation, pd: PantsDecomposition) -> SampleImages:
    """The one-sample pass at rep; raises the sample's evaluation
    failure."""
    images = sample_images(rep.generators, _matrices_of([rep]), pd)
    failure = images.failure(0)
    if failure is not None:
        raise failure
    return images


# ---------------------------------------------------------------------------
# the first failure of a pass


class _Failures:
    """The guards of a pass and the first failure among them.

    A guard is a mask, over samples (n,) or over endpoint patterns and
    samples (patterns, n), True where a step of the scalar pipeline
    raises, with the error it raises there.  A stage computes each of
    its guards for all its items at once, stacked on arrays, and
    record() slices it per item.  The first failure is the one with the
    least key (phase, sample, stage, item, pattern, g): phase 0 (pattern
    row 0, which takes chain 0 on every cuff) before phase 1 (the other
    rows, and the tracking of chain 1); within a phase, samples in
    order; then the stage (-1 evaluation and start label, 0 endpoint
    selection, 1 adaptedness, 2 placement, 3 Schlafli terms), the item
    within it (cuff, pants or leaf), the pattern row, and the guard's
    place within its item, in the order the checks are recorded.
    """

    def __init__(self):
        self._first = None     # (key, error, message)

    def record(self, stage: int, spans: list, checks: list,
               phase: int = 0) -> None:
        """Record the guards of a stage for the items in spans.

        spans lists (item, key, index) per item: its place in the
        scalar order, the key its messages name, and the index of its
        part of a mask.  checks lists (mask, error, message) in the
        order the scalar step meets them; message is a string or a
        function of (key, index, pattern row, sample).  phase applies to
        masks over samples only."""
        for g, (mask, error, message) in enumerate(checks):
            if not mask.any():
                continue
            for item, key, index in spans:
                part = mask[index]
                if part.any():
                    self._add((stage, item), g, part, error,
                              message if isinstance(message, str)
                              else functools.partial(message, key, index),
                              phase)

    def _add(self, block, g, mask, error, message, phase):
        """Keep mask's first hit, if it has the least key so far."""
        if mask.ndim == 1:
            row, k = 0, int(mask.argmax())
        elif mask[0].any():
            phase, row, k = 0, 0, int(mask[0].argmax())
        else:
            k = int(mask[1:].any(axis=0).argmax())
            phase, row = 1, 1 + int(mask[1:, k].argmax())
        key = (phase, k, *block, row, g)
        if self._first is None or key < self._first[0]:
            self._first = (key, error, message)

    def first(self) -> tuple:
        """(phase, error) of the first failure; (0, None) if none."""
        if self._first is None:
            return 0, None
        key, error, message = self._first
        if not isinstance(message, str):
            message = message(key[4], key[1])
        return key[0], error(message)

    def raise_first(self) -> None:
        failure = self.first()[1]
        if failure is not None:
            raise failure


def _whole(item: int = 0) -> list:
    """The spans of a guard that is one item's whole mask."""
    return [(item, None, ...)]


def _cuff_spans(pd: PantsDecomposition) -> list:
    """The spans of guards over cuffs, (cuffs, ...): cuff j is item j."""
    return [(j, j, j) for j in range(len(pd.cuffs))]


def _singular(images: SampleImages, j: int, k: int) -> str:
    """classify's message where the tr^2 of cuff j is not finite."""
    t2r, t2i = images.cuff_maps.trace_squared()
    return f"squared trace {complex(t2r[j, k], t2i[j, k])} is not finite"


def _classified(images: SampleImages, bad: np.ndarray, error,
                message) -> list:
    """The checks, over (cuffs, n), of classifying every cuff and taking
    its fixed points: classify's SingularMatrix where tr^2 is not
    finite, error where bad holds, with message(cuff, kind), and the
    guards of the two ProjectivePoints."""
    kinds = images.kinds
    first_zero, second_zero = images.cuff_points[2:]
    return [(kinds < 0, SingularMatrix,
             lambda j, index, row, k: _singular(images, j, k)),
            (bad, error, lambda j, index, row, k:
             message(images.pd.cuffs[j], KINDS[kinds[j, k]])),
            (first_zero, DegenerateConfiguration, _ZERO),
            (second_zero, DegenerateConfiguration, _ZERO)]


def _track(d: np.ndarray, gap: np.ndarray, begin: int) -> tuple:
    """Endpoint tracking in closed form: (chain, failed, moved), each
    (cuffs, n).  d[s, b] is the distance from fixed point s of sample
    k - 1 (at k = 0, from the start) to fixed point b of sample k.  A
    step sends both previous points to the nearer new one (the second
    unless d1 <= d2), so it keeps, swaps or resets the chain (True: the
    second point), which is its value at the last reset, flipped once
    per swap since.  moved is min(d1, d2) from the chain's previous
    point; the chain fails at the first k >= begin where moved >= 0.45
    gap, and reads False from there on."""
    to = ~(d[:, 0] <= d[:, 1])           # (previous point, cuffs, n)
    last = np.maximum.accumulate(
        np.where(to[0] == to[1], np.arange(d.shape[-1]), 0), axis=-1)
    flips = np.cumsum(to[0] & ~to[1], axis=-1) % 2 == 1     # odd swaps
    chain = np.take_along_axis(to[0] ^ flips, last, -1) ^ flips
    before = np.concatenate([chain[:, :1], chain[:, :-1]], axis=1)
    d1, d2 = np.where(before, d[1], d[0])
    moved = np.where(d2 < d1, d2, d1)
    bad = moved >= 0.45 * gap
    bad[:, :begin] = False
    seen = np.cumsum(bad, axis=-1)
    return chain & (seen == 0), bad & (seen == 1), moved


def _selection(images: SampleImages, start: str | dict,
               failures: _Failures, phase: int = 0) -> tuple:
    """(chosen, other) PointArrays of every cuff, (cuffs, n), tracked
    (_track) from start: a label, which sits on its fixed point at the
    first sample, or a dict cuff id -> (chosen, other), whose chosen
    points are tracked to it; and the chain mask, (cuffs, n), True where
    the chosen point is the second fixed point.  An unknown label, or a
    dict that lacks a cuff, fails at the first sample and raises at
    once: only sample 0's evaluation guard comes before it, and the
    callers have recorded or raised that one already.

    The guards of resolve_endpoints and track_endpoints, cuff by cuff in
    their order: the cuff's kind (identity and parabolic raise
    NotAdapted), its fixed points, and the tracking test.
    """
    pd = images.pd
    n = len(images)
    if isinstance(start, dict):
        missing = [c.id for c in pd.cuffs if c.id not in start]
        bad = missing and f"start endpoints lack cuffs {missing}"
    else:
        bad = start not in _LABELS and f"unknown endpoint label {start!r}"
    if bad:
        failures.record(-1, _whole(1), [(np.arange(n) == 0, PleatbendError,
                                         bad)])
        failures.raise_first()
    if isinstance(start, dict):
        start = PointArray.of([start[c.id][0] for c in pd.cuffs])
    pts = stack_points(images.cuff_points[:2])     # (2, cuffs, n)
    d = np.empty((2, 2, len(pd.cuffs), n))
    d[..., 1:] = chordal_array(pts[:, None, :, :-1], pts[None, :, :, 1:])
    if isinstance(start, str):
        d[..., 0] = np.inf          # nearer the label's own point
        d[:, _LABELS.index(start), :, 0] = 0.0
    else:
        d[..., 0] = chordal_array(start, pts[..., 0])
    gap = chordal_array(pts[0], pts[1])
    chain, failed, moved = _track(d, gap, int(isinstance(start, str)))
    kinds = images.kinds
    checks = _classified(images, (kinds == _IDENTITY) | (kinds == _PARABOLIC),
                         NotAdapted, lambda cuff, kind:
                         f"cuff {cuff.id!r} is {kind}")
    checks.append((failed, OrientationTrackingFailure,
                   lambda j, index, row, k:
                   f"endpoint of cuff {pd.cuffs[j].id!r} moved "
                   f"{float(moved[j, k]):.3g} against a fixed-point gap of "
                   f"{float(gap[j, k]):.3g}"))
    failures.record(0, _cuff_spans(pd), checks, phase)
    return pts[1].select(chain, pts[0]), pts[0].select(chain, pts[1]), chain


def _points(pd: PantsDecomposition, chosen: PointArray,
            other: PointArray) -> dict:
    """A selection at sample 0 as cuff id -> (chosen, other)."""
    return {c.id: (chosen.point((j, 0)), other.point((j, 0)))
            for j, c in enumerate(pd.cuffs)}


def _loxodromic_start(images: SampleImages) -> None:
    """Raise unless every cuff is loxodromic at the first sample of a
    pass, as an orientation's start endpoints need."""
    failures = _Failures()
    checks = _classified(images, images.kinds != _LOXODROMIC,
                         OrientationTrackingFailure, lambda cuff, kind:
                         f"cuff {cuff.id!r} is {kind} at the path start; "
                         "orientation endpoints need a loxodromic cuff")
    failures.record(0, _cuff_spans(images.pd),
                    [(mask[:, :1], error, message)
                     for mask, error, message in checks])
    failures.raise_first()


def orientation_start_endpoints(ori, images: SampleImages) -> dict:
    """Start selection of an orientation at the first sample of a pass:
    cuff id -> (zeta, other), the attracting fixed point where ori is
    forward, the repelling one elsewhere.  Every cuff must be
    loxodromic there."""
    _loxodromic_start(images)
    first, second = (x[:, :1] for x in images.cuff_points[:2])
    forward = np.array(ori.forward, dtype=bool)[:, None]
    return _points(images.pd, first.select(forward, second),
                   second.select(forward, first))


def resolve_endpoints(rep: Representation, pd: PantsDecomposition,
                      start: str | dict) -> dict:
    """Chosen and unchosen fixed point per cuff: cuff id -> (zeta, other).

    start is "attracting", which chooses the first point reported by
    fixed_points (for a loxodromic cuff, the attracting one), or
    "repelling", which chooses the second; any other label raises
    PleatbendError once the sample is evaluated.  start may also be a
    selection at a nearby representation, cuff id -> (zeta, other),
    which is continued to this one (track_endpoints): each cuff's new
    fixed points are matched to the previously chosen one by chordal
    distance; if the previous point is not clearly closer to one of
    them than the points are to each other, tracking is ambiguous and
    fails.
    """
    failures = _Failures()
    chosen, other, _ = _selection(_one_sample(rep, pd), start, failures)
    failures.raise_first()
    return _points(pd, chosen, other)


# continuing a selection is the same call; perfbench's tracer counts
# the calls made under this name
track_endpoints = resolve_endpoints


# ---------------------------------------------------------------------------
# adaptedness


@dataclass(frozen=True)
class PairSharing:
    """Whether two slots of a pants share a fixed point, by tr^2 [x, y]."""

    pants: int
    slots: tuple[int, int]
    tr2_commutator: complex
    flagged: bool


@dataclass(frozen=True)
class AdaptednessReport:
    """check_adapted's verdict: cuff types, bad cuffs, slot-pair tests."""

    adapted: bool
    cuff_kinds: dict
    bad_cuffs: tuple[str, ...]
    pair_reports: tuple[PairSharing, ...]

    def flagged_pairs(self) -> tuple[PairSharing, ...]:
        return tuple(r for r in self.pair_reports if r.flagged)

    def summary(self) -> str:
        if self.adapted:
            return "adapted"
        parts = [f"cuff {c!r} is {self.cuff_kinds[c]}" for c in self.bad_cuffs]
        for r in self.flagged_pairs():
            parts.append(f"pants {r.pants} slots {r.slots} share an endpoint "
                         f"(tr2 commutator {r.tr2_commutator:.6g})")
        return "; ".join(parts)


def shared_endpoint_check(m1: MoebiusMap,
                          m2: MoebiusMap) -> tuple[bool, complex]:
    """Do two maps share a fixed point?  Tested on the commutator trace.

    Two non-trivial maps have a common fixed point exactly when their
    commutator has squared trace 4; the test flags |tr^2 - 4| below
    EPS_CLASS.  No product of maps is formed: the Fricke trace identity
    (commutator_trace) gives tr[A, B] from tr A, tr B and tr AB = a1 a2
    + b1 c2 + c1 b2 + d1 d2.  A tr^2 that is not finite is not flagged.
    """
    tab = m1.a * m2.a + m1.b * m2.c + m1.c * m2.b + m1.d * m2.d
    t = commutator_trace(m1.trace, m2.trace, tab)
    tr2 = t * t
    return abs(tr2 - 4) < EPS_CLASS, tr2


def _flagged(images: SampleImages) -> np.ndarray:
    """(n, rows, 3): where a slot commutator's tr^2 lies within
    EPS_CLASS of 4."""
    t = images.traces
    return np.hypot(t.real - 4.0, t.imag) < EPS_CLASS


def _adaptedness(images: SampleImages, k: int) -> AdaptednessReport:
    """check_adapted at sample k."""
    pd = images.pd
    codes = images.kinds[:, k].tolist()
    kinds = {}
    for j, (c, code) in enumerate(zip(pd.cuffs, codes)):
        if code < 0:
            raise SingularMatrix(_singular(images, j, k))
        kinds[c.id] = KINDS[code]
    bad = [c.id for c, code in zip(pd.cuffs, codes)
           if code in (_IDENTITY, _PARABOLIC)]
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


def check_adapted(rep: Representation,
                  pd: PantsDecomposition) -> AdaptednessReport:
    """Adaptedness of a representation to a decomposition.

    Every cuff image must be non-trivial and non-parabolic, and the
    three slot words of each pants must have pairwise disjoint fixed
    sets (commutator squared-trace test), read from the commutator
    traces that sample_images stored; both tests use EPS_CLASS.
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
    end at that cuff by delta (larger s is a smaller horoball).  Every
    scale must be finite and positive: making a convention (uniform,
    rescaled or directly) with another raises PleatbendError, naming
    the first such cuff in scale order.
    """

    scales: dict

    def __post_init__(self):
        for cuff, scale in self.scales.items():
            if not 0 < scale < math.inf:
                need = "positive" if scale <= 0 else "finite"
                raise PleatbendError(
                    f"horoball scale for {cuff!r} must be {need}")

    @classmethod
    def uniform(cls, pd: PantsDecomposition,
                scale: float = 1.0) -> "TruncationConvention":
        return cls(scales={c.id: float(scale) for c in pd.cuffs})

    def rescaled(self, cuff_id: str, factor: float) -> "TruncationConvention":
        self._require([cuff_id])
        out = dict(self.scales)
        out[cuff_id] = out[cuff_id] * factor
        return TruncationConvention(scales=out)

    def _require(self, cuff_ids) -> None:
        """Raise PleatbendError naming the cuff_ids without a scale."""
        missing = [c for c in cuff_ids if c not in self.scales]
        if missing:
            raise PleatbendError(f"truncation scales lack cuffs {missing}")


def _truncated_lengths(a: PointArray, b: PointArray, witness_a: tuple,
                       witness_b: tuple) -> tuple:
    """truncated_geodesic_length at every element: the lengths, and its
    checks as (mask, error, message) in its order.

    The depth (|z|^2 + t^2) / t of the witness at a is taken as
    |z|^2 / t + t where t^2 falls below the normal floats (t below about
    1.5e-154), at which t^2 loses digits or is 0.  A witness height
    that takes the arithmetic past the float range (uniform horoball
    scales of 1e160 or 1e-308 do) makes a length inf or NaN, which no
    comparison with 0 catches; the last check trips there."""
    frame, coincide = MoebiusArray.normalizing(a, b)
    za_r, za_i, ta = frame.apply_interior(*witness_a)
    _, _, tb = frame.apply_interior(*witness_b)
    with np.errstate(all="ignore"):
        z2, t2 = _abs2(za_r, za_i), ta * ta
        depth = np.where(t2 >= _TINY, (z2 + t2) / ta, z2 / ta + ta)
        collapsed = (depth <= 0) | (tb <= 0)
        lengths = (np.log(np.where(collapsed, 1.0, tb))
                   - np.log(np.where(collapsed, 1.0, depth)))
    return lengths, [(coincide, DegenerateConfiguration, _COINCIDE),
                     (collapsed, DegenerateConfiguration,
                      "horoball witness collapsed to the boundary"),
                     (~np.isfinite(lengths), DegenerateConfiguration,
                      _out_of_range)]


def _out_of_range(key, index, row, k) -> str:
    leaf = "" if key is None else f" of leaf {key}"
    return ("horoball truncation left the float range: the truncated "
            f"length{leaf} is not finite")


def _carry(images: SampleImages, words: np.ndarray, points: PointArray,
           where: np.ndarray) -> np.ndarray:
    """Carry points[where] in place by the images of words[where] (their
    places in images.words), as the scalar code carries a point only by
    a non-empty conjugator; returns the mask, of points' shape, where
    the carried ProjectivePoint would raise."""
    moved, zero = images.stack.take(words[where]).apply(points[where])
    for x, m in zip(points.parts(), moved.parts()):
        x[where] = m
    mask = np.zeros(points.z1r.shape, dtype=bool)
    mask[where] = zero
    return mask


class _Geometry:
    """Plaques and Schlafli terms of a pass's samples under endpoint
    chains, on arrays stacked over every pants and every cuff leaf.

    zeta holds the (chosen, other) points of every cuff under every
    chain, each (chains, cuffs, n), and second, (chains, cuffs, n), is
    True where the chosen point is the second fixed point.  One rule
    numbers every row: the rows of a support (sorted cuff indices) form
    one block, and a chain vector, one chain per cuff, reads the row of
    its block that its chains on the support spell as a number in base
    chains, so a block runs through the patterns of the support in
    itertools.product order and its row 0 takes chain 0 everywhere.  The
    plaques stack the blocks of all pants, pants p at the rows
    pants_rows[p]; the cuff terms stack those of every cuff leaf's
    support, cuff j at cuff_rows[j].  table[v, t] is the row of the
    stacked terms that chain vector v reads for leaf t, the vectors in
    product order, which is enumerate_orientations' when forward takes
    chain 0.  slots holds, per slot and plaque row, (3, rows), the
    slot's cuff, that cuff's chain, the conjugator's place in
    images.words and whether it is not empty, and holonomy the places of
    the slot words each row's leaf i reads, of slot i + 1.  cuff_terms
    holds, per cuff term row, the cuff, its chain, the plaque rows and
    the slots of its two ends, and the crossing word's place in
    images.words.  place() sets vertices, the three vertices of every
    row, (3, rows, n), carried_zero, where the carried ones would raise,
    and pushed, holonomy[i] . xi_{i+2 mod 3} with its mask.  Each stage
    returns, or records, its guards as checks over its rows, in the
    order of the scalar step it repeats.  The stages that take no
    argument (leaf_angles, cuff_angles, cuff_lengths) are cached
    properties, computed once per geometry however often they are read.
    """

    def __init__(self, images: SampleImages, selections: list):
        pd = images.pd
        self.images = images
        self.pd = pd
        lam = images.lamination
        self.chains = len(selections)
        self.index = {c.id: j for j, c in enumerate(pd.cuffs)}
        self.zeta = tuple(stack_points([sel[s] for sel in selections])
                          for s in (0, 1))
        self.second = np.stack([sel[2] for sel in selections])
        supports = {leaf.key: leaf.support for leaf in lam.leaves}
        self.pants_rows, plaque_rule = self._number(lam.pants_cuffs)
        self.cuff_rows, cuff_rule = self._number([supports[c.id]
                                                  for c in pd.cuffs])
        # every chain vector, in enumerate_orientations' order, written
        # at the rows it reads: each row gets the chains of its
        # support's cuffs
        vectors = np.array(list(itertools.product(range(self.chains),
                                                  repeat=len(pd.cuffs))),
                           dtype=np.intp).reshape(-1, len(pd.cuffs))
        plaque, cuff_term = (starts + vectors @ weights
                             for starts, weights in (plaque_rule, cuff_rule))
        plaques, spiral = self.pants_rows[-1].stop, self.cuff_rows[-1].stop
        self.table = np.stack([cuff_term[:, self.index[leaf.key]]
                               if isinstance(leaf.key, str)
                               else spiral + leaf.key[1] * plaques
                               + plaque[:, leaf.key[0]]
                               for leaf in lam.leaves], axis=1)
        ends = [pants.cuff_ends for pants in pd.pants]
        slot_cuffs = [[self.index[e.cuff] for e in row] for row in ends]
        chain = np.empty((3, plaques), dtype=np.intp)
        chain[:, plaque] = np.moveaxis(vectors[:, slot_cuffs], -1, 0)
        self.slots = (
            self._per_pants(slot_cuffs),
            chain,
            self._per_pants([[images.index[e.conjugator] for e in row]
                             for row in ends]),
            self._per_pants([[bool(e.conjugator) for e in row]
                             for row in ends]))
        self.holonomy = self._per_pants(
            [[images.index[row[(i + 1) % 3]] for i in range(3)]
             for row in pd.slot_words])
        signed = np.array([pd.signed_ends_of(c.id) for c in pd.cuffs],
                          dtype=np.intp)
        (pp, kp), (pm, km) = signed.transpose(1, 2, 0)     # each (cuffs,)
        crossing = np.array([images.index[pd.crossing_words[c.id]]
                             for c in pd.cuffs], dtype=np.intp)
        cuff = np.broadcast_to(np.arange(len(pd.cuffs)), vectors.shape)
        self.cuff_terms = np.empty((7, spiral), np.intp)
        self.cuff_terms[:, cuff_term] = np.stack([
            cuff, vectors, plaque[:, pp], plaque[:, pm], kp[cuff], km[cuff],
            crossing[cuff]])
        self.vertices = self.carried_zero = self.pushed = None

    def _number(self, supports) -> tuple:
        """The blocks of supports, consecutive slices of chains ** len
        rows each, and the rule that numbers their rows: (starts,
        weights), (supports,) and (cuffs, supports), so that chain
        vector v reads row starts + v @ weights."""
        weights = np.zeros((len(self.pd.cuffs), len(supports)),
                           dtype=np.intp)
        for s, support in enumerate(supports):
            for q, j in enumerate(support):
                weights[j, s] = self.chains ** (len(support) - 1 - q)
        sizes = [self.chains ** len(support) for support in supports]
        stops = np.cumsum(sizes).tolist()
        starts = [stop - size for stop, size in zip(stops, sizes)]
        return ([slice(a, b) for a, b in zip(starts, stops)],
                (np.array(starts, dtype=np.intp), weights))

    def leaf_index(self, key) -> tuple:
        """Where the rows of spiral leaf (p, i) lie in the (3, rows, n)
        arrays of the plaques; InvalidDecomposition for a key that names
        no spiral leaf."""
        p, i = key
        if not (0 <= p < len(self.pants_rows) and 0 <= i < 3):
            raise InvalidDecomposition(f"no spiral leaf {key}")
        return i, self.pants_rows[p]

    def _per_pants(self, values) -> np.ndarray:
        """values[p][slot] at every plaque row, (3, rows)."""
        return np.array([values[p] for p, rows in enumerate(self.pants_rows)
                         for _ in range(rows.stop - rows.start)]).T

    def place(self, failures: _Failures) -> None:
        """Place every pants at every pattern of chains on its cuffs.

        Slot k's vertex is the chosen endpoint of its cuff carried by
        the slot's conjugator.  The guards raise DegenerateTriangle
        where two vertices of a plaque are closer than EPS_SEP: of the
        upper plaque, or of the lower one, xi_2 pushed by the slot-1
        holonomy.
        """
        cuff, chain, conjugator, carried = self.slots
        xi = self.zeta[0][chain, cuff]
        self.carried_zero = _carry(self.images, conjugator, xi, carried)
        checks = [(self.carried_zero[s], DegenerateConfiguration, _ZERO)
                  for s in range(3)]
        checks += self._plaque_checks(xi)
        self.pushed = self.images.stack.take(self.holonomy).apply(
            xi[[2, 0, 1]])
        down, zero = self.pushed
        checks.append((zero[0], DegenerateConfiguration, _ZERO))
        checks += self._plaque_checks(stack_points([xi[0], xi[1], down[0]]))
        failures.record(2, [(p, p, rows)
                            for p, rows in enumerate(self.pants_rows)],
                        checks)
        self.vertices = xi

    @staticmethod
    def _plaque_checks(tri: PointArray) -> list:
        d = chordal_array(tri, tri[[1, 2, 0]])

        def message(i):
            return lambda p, rows, row, k: (
                f"plaque of pants {p} has vertices "
                f"{d[i, rows][row, k]:.3g} apart")
        return [(d[i] < EPS_SEP, DegenerateTriangle, message(i))
                for i in range(3)]

    @functools.cached_property
    def leaf_angles(self) -> tuple:
        """leaf_bending of every spiral leaf at every pattern and sample,
        (3, rows, n) with leaf (p, i) at leaf_index, and its checks."""
        xi = self.vertices
        down, zero = self.pushed
        re, im, crossings = cross_ratio_array(xi, xi[[1, 2, 0]],
                                              xi[[2, 0, 1]], down)
        far = ((re == 0.0) & (im == 0.0)) | np.isinf(re) | np.isinf(im)
        checks = [(zero, DegenerateConfiguration, _ZERO)]
        checks += [(mask, DegenerateConfiguration,
                    f"coincident points {label}") for label, mask in crossings]
        checks.append((far, DegenerateConfiguration,
                       lambda key, index, row, k:
                       f"far vertices of leaf {key} collide with its "
                       "endpoints"))
        return reduce_angle_array(math.pi - np.arctan2(im, re)), checks

    def leaf_lengths(self, conv: TruncationConvention) -> tuple:
        """truncated_length of every spiral leaf at every pattern and
        sample, (3, rows, n) with leaf (p, i) at leaf_index, and its
        checks.

        Each leaf end reads the horoball witness of its cuff, the point
        at height scale above the chosen endpoint in the frame taking
        (other, chosen) to (0, infinity), carried by the slot's
        conjugator; where that frame's normalizing_map raises, the end's
        check holds.
        """
        cuff, chain, conjugator, carried = self.slots
        zeta, other = self.zeta
        frame, coincide = MoebiusArray.normalizing(other, zeta)
        ids = [c.id for c in self.pd.cuffs]
        conv._require(ids)
        scales = np.array([conv.scales[c] for c in ids], dtype=float)
        witness = tuple(x[chain, cuff] for x in frame.inverse().apply_interior(
            0.0, 0.0, scales[:, None]))
        del frame
        moved = self.images.stack.take(conjugator[carried]).apply_interior(
            *(w[carried] for w in witness))
        for w, m in zip(witness, moved):
            w[carried] = m
        coincide = coincide[chain, cuff]
        nxt = [1, 2, 0]
        checks = [(coincide[slots], DegenerateConfiguration, _COINCIDE)
                  for slots in ([0, 1, 2], nxt)]
        xi = self.vertices
        lengths, truncation = _truncated_lengths(
            xi, xi[nxt], witness, tuple(w[nxt] for w in witness))
        return lengths, checks + truncation

    @functools.cached_property
    def cuff_lengths(self) -> np.ndarray:
        """complex_length of every cuff at every sample, (cuffs, n)."""
        images = self.images
        return images.cuff_maps.complex_length(images.kinds)

    @functools.cached_property
    def cuff_angles(self) -> tuple:
        """cuff_bending at winding 0 of every cuff leaf at every pattern
        of its support and every sample, (cuff rows, n) with cuff j at
        cuff_rows[j], and its checks."""
        images = self.images
        cuffs, chains, plus, minus, kp, km, crossings = self.cuff_terms
        _, _, conjugator, lifted = self.slots
        W = images.stack.take(crossings)
        # the chosen endpoint as placed at the positive end, the other
        # one carried there by the same conjugator; below, each step is
        # done for the four plaque vertices at once and its guards
        # recorded in the scalar order
        xi = self.vertices
        other = self.zeta[1][chains, cuffs]
        checks = [(zero, DegenerateConfiguration, _ZERO) for zero in (
            self.carried_zero[kp, plus],
            _carry(images, conjugator[kp, plus], other, lifted[kp, plus]))]
        frame, coincide = MoebiusArray.normalizing(other, xi[kp, plus])
        del other
        checks.append((coincide, DegenerateConfiguration, _COINCIDE))
        carried, carried_zero = W.apply(stack_points(
            [xi[(km + 1) % 3, minus], xi[(km + 2) % 3, minus]]))
        del W
        # a1, a2 and W b1, W b2 in the frame of the cuff; to_complex is
        # infinity within EPS_NUM, else z1 / z2
        q, zero = frame.apply(stack_points([xi[(kp + 1) % 3, plus],
                                            xi[(kp + 2) % 3, plus],
                                            carried[0], carried[1]]))
        del frame, carried
        with np.errstate(all="ignore"):
            z = _quot(q.z1r, q.z1i, q.z2r, q.z2i)
            on_axis = ((np.hypot(q.z2r, q.z2i) < EPS_NUM) | np.isinf(z[0])
                       | np.isinf(z[1]))
        for c in range(4):
            if c >= 2:
                checks.append((carried_zero[c - 2], DegenerateConfiguration,
                               _ZERO))
            checks += [(zero[c], DegenerateConfiguration, _ZERO),
                       (on_axis[c], DegenerateConfiguration,
                        lambda key, index, row, k:
                        f"plaque vertex lies on the axis of cuff {key!r}")]
        dir_a = (z[0][0] - z[0][1], z[1][0] - z[1][1])
        dir_b = (z[0][2] - z[0][3], z[1][2] - z[1][3])
        checks.append(((np.hypot(*dir_a) < 1e-30) | (np.hypot(*dir_b) < 1e-30),
                       DegenerateConfiguration,
                       lambda key, index, row, k:
                       f"degenerate plaque directions at cuff {key!r}"))
        with np.errstate(all="ignore"):
            ratio_r, ratio_i = _quot(*dir_b, *dir_a)
        return reduce_angle_array(np.arctan2(ratio_i, ratio_r)), checks

    def terms(self, conv: TruncationConvention | None,
              failures: _Failures) -> tuple:
        """The Schlafli terms of every leaf of the lamination at every
        row and sample, stacked: (angles, lengths), each (rows, n), the
        cuff term rows first, then spiral leaf i of every plaque row, for
        i = 0, 1, 2.  table gives the row an orientation reads for a
        leaf.  All cuff leaves are computed at once, and so are all
        spiral leaves.  Without a convention only the angle stages run
        and record their guards, and lengths is None."""
        cuff_angles, cuff_checks = self.cuff_angles
        leaf_angles, leaf_checks = self.leaf_angles
        if conv is not None:
            leaf_lengths, length_checks = self.leaf_lengths(conv)
            leaf_checks = leaf_checks + length_checks
        cuffs, leaves = [], []
        for t, leaf in enumerate(self.images.lamination.leaves):
            if isinstance(leaf.key, str):
                cuffs.append((t, leaf.key,
                              self.cuff_rows[self.index[leaf.key]]))
            else:
                leaves.append((t, leaf.key, self.leaf_index(leaf.key)))
        failures.record(3, cuffs, cuff_checks)
        failures.record(3, leaves, leaf_checks)
        n = len(self.images)
        angles = np.concatenate([cuff_angles, leaf_angles.reshape(-1, n)])
        if conv is None:
            return angles, None
        return angles, np.concatenate([self.cuff_lengths.real[
            self.cuff_terms[0]], leaf_lengths.reshape(-1, n)])


def _placed(images: SampleImages, starts: list,
            failures: _Failures) -> _Geometry:
    """The plaques of a pass placed under the endpoint chains from starts,
    the guards before the terms recorded in failures: the evaluation,
    each chain's endpoint selection, where a bad start raises at once,
    the adaptedness check, placement."""
    failures.record(-1, _whole(), [(~images.evaluated(),
                                    SampleEvaluationFailure,
                                    lambda key, index, row, k:
                                    str(images.failure(k)))])
    # identity and parabolic cuffs fail chain 0's selection before this
    failures.record(1, _whole(), [
        (_flagged(images).any(axis=(1, 2)), NotAdapted,
         lambda key, index, row, k: _adaptedness(images, k).summary())])
    geometry = _Geometry(images, [_selection(images, start, failures, phase)
                                  for phase, start in enumerate(starts)])
    geometry.place(failures)
    return geometry


def path_terms(images: SampleImages, starts: list,
               conv: TruncationConvention | None) -> tuple:
    """Every Schlafli term of the lamination of images.pd at every
    sample of a pass, for the endpoint chains that start from starts
    (labels or selections), and the rows that every orientation, a
    chain per cuff in enumerate_orientations' order, reads.

    Returns (table, angles, lengths, deferred): angles and lengths are
    the stacked terms of _Geometry.terms, (rows, n), lengths None and
    their guards unchecked without a convention conv, and table[o, t]
    is the row that orientation o reads for leaf t.  The first failure
    of the pass (_Failures), among those of _placed and the terms,
    raises if it is of phase 0, orientation 0 with chain 0 everywhere,
    as integrating that orientation alone would.  One of phase 1 is
    returned as deferred instead, and table then holds orientation 0
    alone: the rows that no orientation reads may hold anything.
    """
    failures = _Failures()
    geometry = _placed(images, starts, failures)
    angles, lengths = geometry.terms(conv, failures)
    phase, failure = failures.first()
    if failure is None:
        return geometry.table, angles, lengths, None
    if phase == 0:
        raise failure
    return geometry.table[:1], angles, lengths, failure


# ---------------------------------------------------------------------------
# realization


@dataclass(frozen=True)
class PleatedRealization:
    """One representation realized: the chosen endpoints (cuff id ->
    (chosen, other)), the plaque vertices xi[p][k] and the complex cuff
    lengths, with the one-sample geometry that every term of it reads.
    realize raises unless the representation is adapted."""

    geometry: _Geometry
    zeta: dict
    xi: tuple
    cuff_lengths: dict

    @property
    def pd(self) -> PantsDecomposition:
        return self.geometry.pd


def realize(rep: Representation, pd: PantsDecomposition,
            endpoints: str | dict = "attracting") -> PleatedRealization:
    """Realize the plaques of every pants for an adapted representation.

    endpoints is a start label ("attracting" or "repelling") or a dict
    cuff id -> (chosen, other), tracked to this representation's fixed
    points as track_endpoints tracks it.  The representation is
    evaluated by a one-sample pass, set up and placed as a path's first
    sample is (_placed), and fails as that path does first:
    SampleEvaluationFailure, an unknown label or a dict that lacks a
    cuff, the failures of resolve_endpoints or track_endpoints,
    NotAdapted, then DegenerateTriangle.
    """
    images = _one_sample(rep, pd)
    failures = _Failures()
    geometry = _placed(images, [endpoints], failures)
    failures.raise_first()
    return PleatedRealization(
        geometry=geometry,
        zeta=_points(pd, *(z[0] for z in geometry.zeta)),
        xi=tuple(tuple(geometry.vertices.point((s, rows.start, 0))
                       for s in range(3)) for rows in geometry.pants_rows),
        cuff_lengths={c.id: complex(z[0])
                      for c, z in zip(pd.cuffs, geometry.cuff_lengths)})


def _one_term(key, values: np.ndarray, checks: list, index) -> float:
    """values[index] at a realization's one sample, raising the first
    failure of checks there; key is the term's key, which the messages
    name."""
    failures = _Failures()
    failures.record(3, [(0, key, index)], checks)
    failures.raise_first()
    return float(values[index][0, 0])


def leaf_bending(real: PleatedRealization, leaf) -> float:
    """Exterior bending angle across one spiral leaf, in (-pi, pi].

    The two plaques adjacent to the leaf share its endpoints; the angle
    is read off the cross-ratio position of the far vertices: 0 when
    the plaques form one flat ideal quadrilateral.
    """
    key = tuple(leaf)
    geometry = real.geometry
    return _one_term(key, *geometry.leaf_angles, geometry.leaf_index(key))


def cuff_bending(real: PleatedRealization, cuff_id: str,
                 winding: int = 0) -> float:
    """Bending angle picked up by an arc crossing a cuff, in (-pi, pi].

    Measured between the plaque of the positive cuff end and the plaque
    of the negative end transported across the cuff.  Each of the
    winding extra turns around the cuff adds the cuff's rotation at the
    chosen endpoint, as the bending cocycle is additive: Im lambda of
    complex_length where that endpoint is the cuff's first fixed point,
    -Im lambda where it is the second.  So a winding reads the winding-0
    angle and the cuff length of the realization, and evaluates no word.
    """
    geometry = real.geometry
    j = real.pd.cuff_index(cuff_id)
    angle = _one_term(cuff_id, *geometry.cuff_angles, geometry.cuff_rows[j])
    if not winding:
        return angle
    turn = float(geometry.cuff_lengths[j, 0].imag)
    if geometry.second[0, j, 0]:
        turn = -turn
    # a winding counts turns: one that is no integer raises TypeError
    return reduce_angle(angle + operator.index(winding) * turn)


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

    lengths, checks = _truncated_lengths(
        PointArray.of([a])[None], PointArray.of([b])[None],
        array(witness_a), array(witness_b))
    return _one_term(None, lengths, checks, ...)


def truncated_length(real: PleatedRealization, leaf,
                     conv: TruncationConvention) -> float:
    """Length of a spiral leaf between the horoballs at its two ends."""
    key = tuple(leaf)
    geometry = real.geometry
    return _one_term(key, *geometry.leaf_lengths(conv),
                     geometry.leaf_index(key))


@dataclass(frozen=True)
class BendingData:
    """All Schlafli ingredients of one realization."""

    leaf_angles: dict               # (pants, i) -> angle
    cuff_angles: dict               # cuff id -> angle
    leaf_lengths: dict              # (pants, i) -> truncated length
    cuff_lengths: dict              # cuff id -> real translation length


def bending_data(real: PleatedRealization,
                 conv: TruncationConvention | None = None) -> BendingData:
    if conv is None:
        conv = TruncationConvention.uniform(real.pd)
    geometry = real.geometry
    failures = _Failures()
    angles, lengths = geometry.terms(conv, failures)
    failures.raise_first()
    rows = geometry.table[0].tolist()
    values = {leaf.key: (float(angles[r, 0]), float(lengths[r, 0]))
              for leaf, r in zip(geometry.images.lamination.leaves, rows)}
    cuffs = {k: v for k, v in values.items() if isinstance(k, str)}
    leaves = {k: v for k, v in values.items() if not isinstance(k, str)}
    return BendingData(leaf_angles={k: v[0] for k, v in leaves.items()},
                       cuff_angles={k: v[0] for k, v in cuffs.items()},
                       leaf_lengths={k: v[1] for k, v in leaves.items()},
                       cuff_lengths={k: v[1] for k, v in cuffs.items()})
