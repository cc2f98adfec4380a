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
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfiguration, DegenerateTriangle, NotAdapted,
                     PleatbendError, SampleEvaluationFailure, UnknownLetter)
from .moebius import (EPS_CLASS, IsometryClass, MoebiusArray, MoebiusMap,
                      ProjectivePoint, _complex_length, _fixed_points,
                      chordal, classify, cross_ratio, normalizing_map,
                      reduce_angle, trace_squared)
from .representation import Representation, evaluate_word
from .topology import (CuffCrossing, LeafCrossing, PantsDecomposition,
                       TransverseArc, _tokens, build_lamination, invert_word)

EPS_SEP = 1e-9

_LABELS = ("attracting", "repelling")
_PAIRS = ((0, 1), (1, 2), (2, 0))    # slot pairs of check_adapted
_DEGENERATE = (IsometryClass.IDENTITY, IsometryClass.PARABOLIC)


class WordImages(dict):
    """Images of words under one representation, each evaluated once.

    A dict from word to MoebiusMap, made only by sample_images, which
    fills every word the sample pipeline reads.  It is handed to
    track_endpoints, check_adapted and AdaptedSample in place of the
    representation, so they share every word image.  They share what
    is read off the images as well: the kind and the fixed points of a
    word, each found once at eps_class, the classification tolerance
    that the pass fixed for the sample, and the slot commutator traces
    that check_adapted reads, in commutators (a pants' three slot words
    -> the tr^2 of its pairs (0, 1), (1, 2) and (2, 0)).  rep is the
    representation itself, for a word outside the pass.
    """

    __slots__ = ("rep", "commutators", "eps_class", "_kinds", "_fixed")

    def __init__(self, rep: Representation, images, commutators: dict,
                 eps_class: float):
        super().__init__(images)
        self.rep = rep
        self.commutators = commutators
        self.eps_class = eps_class
        self._kinds = {}
        self._fixed = {}

    def kind(self, word: str) -> str:
        """classify of the image of word."""
        kind = self._kinds.get(word)
        if kind is None:
            kind = self._kinds[word] = classify(self[word], self.eps_class)
        return kind

    def fixed_points(self, word: str) -> tuple:
        """fixed_points of the image of word."""
        pts = self._fixed.get(word)
        if pts is None:
            pts = self._fixed[word] = _fixed_points(
                self[word], self.kind(word), self.eps_class)
        return pts

    def cuff_fixed_points(self, cuff) -> tuple:
        """fixed_points of a cuff's image; raises NotAdapted when the
        cuff is the identity or parabolic."""
        kind = self.kind(cuff.word)
        if kind in _DEGENERATE:
            raise NotAdapted(f"cuff {cuff.id!r} is {kind}")
        return self.fixed_points(cuff.word)


def sample_images(reps, pd: PantsDecomposition,
                  eps_class: float = EPS_CLASS) -> Iterator[WordImages]:
    """Yield one WordImages per representation, filled by one array pass.

    Every word the sample pipeline reads (cuff words, slot words,
    conjugators and the crossing words of cuff_bending) is evaluated at
    all representations at once with MoebiusArray, folding each
    distinct token prefix once, and so is the tr^2 of every slot
    commutator that check_adapted reads.  Both equal the values of
    evaluate_word and shared_endpoint_check bit for bit.  Letters are
    looked up by name, so the representations may list their
    generators in any order; a letter that one of them lacks raises
    UnknownLetter.  The pass runs before the first WordImages is
    yielded; each is filled as it is yielded, so a consumer that drops
    it keeps no sample's maps.  A representation at which a value would
    raise in the scalar arithmetic (a singular matrix, an overflow) or
    is not finite raises SampleEvaluationFailure when its turn comes,
    so a consumer meets the failures of earlier samples first.  Every
    WordImages classifies its words at eps_class, so everything that
    reads one sample uses the same tolerance.
    """
    reps = list(reps)
    words, entries, rows, traces, checks = _array_pass(reps, pd)
    ok = np.logical_and.reduce([good for _, good in checks])
    raw = MoebiusMap._raw
    for k, rep in enumerate(reps):
        if not ok[k]:
            what = next(what for what, good in checks if not good[k])
            raise SampleEvaluationFailure(
                f"sample {k}: {what} is singular, overflows or is not "
                "finite")
        yield WordImages(rep,
                         zip(words, [raw(*e) for e in entries[k].tolist()]),
                         dict(zip(rows, map(tuple, traces[k].tolist()))),
                         eps_class)


def _array_pass(reps: list, pd: PantsDecomposition):
    """The array pass of sample_images: (words, entries (n, words, 4),
    slot rows, their commutator tr^2 (n, rows, 3), checks), where
    checks lists (what, ok (n,)) for every word and then every row.
    Apart from the generator so that its prefix arrays are freed before
    the first sample is yielded."""
    n = len(reps)
    tables = [rep.image_of for rep in reps]
    letters = {}
    words = [c.word for c in pd.cuffs]
    words += [w for row in pd.slot_words for w in row]
    words += [e.conjugator for pants in pd.pants for e in pants.cuff_ends]
    words += pd.crossing_words.values()
    prefixes = {(): MoebiusArray.identity(n)}
    images = {}
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
        images[word] = prefixes[tokens]
    checks = [(f"word {w!r}", m.ok) for w, m in images.items()]
    rows = list(dict.fromkeys(pd.slot_words))
    traces = np.empty((n, len(rows), 3), dtype=complex)
    for r, row in enumerate(rows):
        maps = [images[w] for w in row]
        inverses = [m.inverse() for m in maps]
        ok = np.ones(n, dtype=bool)
        for c, (i, j) in enumerate(_PAIRS):
            comm = maps[i] @ maps[j] @ inverses[i] @ inverses[j]
            cell = traces[:, r, c]
            cell.real, cell.imag = comm.trace_squared()
            ok &= comm.ok & np.isfinite(cell)
        checks.append((f"slot commutators of {row}", ok))
    entries = np.stack([m.entries() for m in images.values()], axis=1)
    return list(images), entries, rows, traces, checks


def _word_images(rep: Representation | WordImages, pd: PantsDecomposition,
                 eps_class: float = EPS_CLASS) -> WordImages:
    """rep itself if it is a WordImages (which keeps its own tolerance),
    else the one-sample pass at rep, classifying at eps_class."""
    if isinstance(rep, WordImages):
        return rep
    return next(sample_images([rep], pd, eps_class))


def resolve_endpoints(rep: Representation | WordImages,
                      pd: PantsDecomposition, start: str) -> dict:
    """Chosen and unchosen fixed point per cuff: cuff id -> (zeta, other).

    start is "attracting", which chooses the first point reported by
    fixed_points (for a loxodromic cuff, the attracting one), or
    "repelling", which chooses the second.
    """
    if start not in _LABELS:
        raise PleatbendError(f"unknown endpoint label {start!r}")
    images = _word_images(rep, pd)
    out = {}
    for cuff in pd.cuffs:
        first, second = images.cuff_fixed_points(cuff)
        out[cuff.id] = (first, second) if start == "attracting" \
            else (second, first)
    return out


def track_endpoints(rep: Representation | WordImages,
                    pd: PantsDecomposition, previous: dict) -> dict:
    """Continue an endpoint selection to a nearby representation.

    Each cuff's new fixed points are matched to the previously chosen
    one by chordal distance; if the previous point is not clearly
    closer to one of them than the points are to each other, tracking
    is ambiguous and fails.
    """
    from .errors import OrientationTrackingFailure
    images = _word_images(rep, pd)
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


def check_adapted(rep: Representation | WordImages,
                  pd: PantsDecomposition) -> AdaptednessReport:
    """Adaptedness of a representation to a decomposition.

    Every cuff image must be non-trivial and non-parabolic, and the
    three slot words of each pants must have pairwise disjoint fixed
    sets (commutator squared-trace test), read from the commutators
    that sample_images stored; both tests use the pass's eps_class.
    """
    images = _word_images(rep, pd)
    kinds = {c.id: images.kind(c.word) for c in pd.cuffs}
    bad = [cid for cid, kind in kinds.items() if kind in _DEGENERATE]
    eps_class = images.eps_class
    reports = []
    for p, words in enumerate(pd.slot_words):
        for (i, j), tr2 in zip(_PAIRS, images.commutators[words]):
            reports.append(PairSharing(pants=p, slots=(i, j),
                                       tr2_commutator=tr2,
                                       flagged=abs(tr2 - 4) < eps_class))
    adapted = not bad and not any(r.flagged for r in reports)
    return AdaptednessReport(adapted=adapted, cuff_kinds=kinds,
                             bad_cuffs=tuple(bad),
                             pair_reports=tuple(reports))


# ---------------------------------------------------------------------------
# realization


class AdaptedSample:
    """The part of a realization that reads no endpoint choice.

    Construction runs the adaptedness check (raising NotAdapted; the
    passing report is kept as report) and evaluates the slot holonomies
    and cuff lengths.  Word images (a WordImages, shared with the check
    and with whoever passed it in) are kept for the life of the object,
    so every endpoint pattern placed on the same representation shares
    them, and so are the horoball witnesses of end_witness.
    """

    def __init__(self, rep: Representation | WordImages,
                 pd: PantsDecomposition):
        images = _word_images(rep, pd)
        report = check_adapted(images, pd)
        if not report.adapted:
            raise NotAdapted(report.summary())
        self.report = report
        self.images = images
        self.pd = pd
        self.holonomy = tuple(tuple(images[w] for w in words)
                              for words in pd.slot_words)
        self.cuff_lengths = {
            c.id: _complex_length(images[c.word], images.kind(c.word))
            for c in pd.cuffs}
        self._witnesses = {}

    def end_witness(self, p: int, slot: int, zeta: dict,
                    conv: TruncationConvention) -> tuple[complex, float]:
        """Horoball witness of the cuff at a slot, carried by the slot's
        conjugator: the one truncated_length reads at that leaf end.

        Each is found once per endpoint pair of its cuff (compared by
        identity) and horoball scale, both per cuff and per slot, so
        every leaf and realization of the sample shares it.
        """
        end = self.pd.pants[p].cuff_ends[slot]
        pair = zeta[end.cuff]
        scale = conv.scales.get(end.cuff)
        wit = self._witnesses.get((p, slot, pair, scale))
        if wit is None:
            wit = self._witnesses.get((end.cuff, pair, scale))
            if wit is None:
                wit = _horoball_witness(pair, conv, end.cuff)
                self._witnesses[end.cuff, pair, scale] = wit
            if end.conjugator:
                wit = self.images[end.conjugator].apply_interior(*wit)
            self._witnesses[p, slot, pair, scale] = wit
        return wit

    def place(self, p: int, zeta: dict) -> tuple:
        """Vertices of pants p for the chosen endpoints of its cuffs.

        zeta maps at least the cuffs of pants p to (chosen, other).
        Raises DegenerateTriangle when vertices of either plaque are
        closer than EPS_SEP.
        """
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
class PleatedRealization:
    sample: AdaptedSample
    zeta: dict                      # cuff id -> (chosen, other)
    xi: tuple                       # xi[p][k] vertex points

    @property
    def pd(self) -> PantsDecomposition:
        return self.sample.pd

    @property
    def holonomy(self) -> tuple:
        """holonomy[p][k], the image of the slot word."""
        return self.sample.holonomy

    @property
    def cuff_lengths(self) -> dict:
        """Cuff id -> complex length."""
        return self.sample.cuff_lengths

    def leaf_endpoints(self, p: int, i: int) -> tuple:
        return self.xi[p][i], self.xi[p][(i + 1) % 3]

    def leaf_opposites(self, p: int, i: int) -> tuple:
        """Third vertices of the two plaques adjacent to a spiral leaf."""
        up = self.xi[p][(i + 2) % 3]
        down = self.holonomy[p][(i + 1) % 3].apply(up)
        return up, down


def realize(rep: Representation | WordImages, pd: PantsDecomposition,
            endpoints: str | dict = "attracting",
            eps_class: float = EPS_CLASS) -> PleatedRealization:
    """Realize the plaques of every pants for an adapted representation.

    endpoints is a start label for resolve_endpoints ("attracting" or
    "repelling") or an already-resolved dict from resolve_endpoints or
    track_endpoints.  A bare representation is evaluated by a
    one-sample pass classifying at eps_class.  Raises
    SampleEvaluationFailure when the word images cannot be evaluated,
    NotAdapted when the adaptedness check fails and DegenerateTriangle
    when realized plaque vertices collide.  This is AdaptedSample
    followed by AdaptedSample.place on every pants.
    """
    sample = AdaptedSample(_word_images(rep, pd, eps_class), pd)
    zeta = endpoints if isinstance(endpoints, dict) \
        else resolve_endpoints(sample.images, pd, endpoints)
    xi = tuple(sample.place(p, zeta) for p in range(len(pd.pants)))
    return PleatedRealization(sample=sample, zeta=zeta, xi=xi)


# ---------------------------------------------------------------------------
# bending angles


def leaf_bending(real: PleatedRealization, leaf) -> float:
    """Exterior bending angle across one spiral leaf, in (-pi, pi].

    The two plaques adjacent to the leaf share its endpoints; the angle
    is read off the cross-ratio position of the far vertices: 0 when
    the plaques form one flat ideal quadrilateral.
    """
    p, i = leaf
    e1, e2 = real.leaf_endpoints(p, i)
    up, down = real.leaf_opposites(p, i)
    crv = cross_ratio(e1, e2, up, down)
    if crv == 0 or cmath.isinf(crv):
        raise DegenerateConfiguration(
            f"far vertices of leaf ({p}, {i}) collide with its endpoints")
    return reduce_angle(math.pi - cmath.phase(crv))


def cuff_bending(real: PleatedRealization, cuff_id: str,
                 winding: int = 0) -> float:
    """Bending angle picked up by an arc crossing a cuff, in (-pi, pi].

    Measured between the plaque of the positive cuff end and the plaque
    of the negative end transported across the cuff; winding adds extra
    passes around the cuff, shifting the angle by multiples of the
    cuff's imaginary length.
    """
    pd = real.pd
    cuff = pd.cuff(cuff_id)
    (pp, kp), (pm, km) = pd.signed_ends_of(cuff_id)
    v_plus = pd.pants[pp].cuff_ends[kp].conjugator
    v_minus = pd.pants[pm].cuff_ends[km].conjugator
    if winding == 0:
        W = real.sample.images[pd.crossing_words[cuff_id]]
    else:
        core = (cuff.word * winding if winding > 0
                else invert_word(cuff.word) * (-winding))
        W = evaluate_word(real.sample.images.rep,
                          v_plus + core + invert_word(v_minus))

    zeta_c, other_c = real.zeta[cuff_id]
    if v_plus:
        lift = real.sample.images[v_plus]
        zeta_c, other_c = lift.apply(zeta_c), lift.apply(other_c)
    frame = normalizing_map(other_c, zeta_c)

    def coord(pt: ProjectivePoint) -> complex:
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


def _horoball_witness(pair: tuple, conv: TruncationConvention,
                      cuff_id: str) -> tuple[complex, float]:
    """Interior point on the cuff's horosphere, in upper-space
    coordinates, for its (chosen, other) endpoints."""
    zeta_c, other_c = pair
    frame = normalizing_map(other_c, zeta_c)
    s = conv.scales[cuff_id]
    if s <= 0:
        raise PleatbendError(f"horoball scale for {cuff_id!r} must be positive")
    return frame.inverse().apply_interior(0j, s)


def truncated_geodesic_length(a: ProjectivePoint, b: ProjectivePoint,
                              witness_a: tuple[complex, float],
                              witness_b: tuple[complex, float]) -> float:
    """Signed length of the geodesic a -> b between two horoballs.

    Each horoball is described by one interior point on its horosphere;
    the horoball at a is tangent at a, the one at b tangent at b.  The
    value is negative when the horoballs overlap across the geodesic.
    """
    frame = normalizing_map(a, b)
    za, ta = frame.apply_interior(*witness_a)
    zb, tb = frame.apply_interior(*witness_b)
    depth_a = (abs(za) ** 2 + ta ** 2) / ta
    height_b = tb
    if depth_a <= 0 or height_b <= 0:
        raise DegenerateConfiguration("horoball witness collapsed to the boundary")
    return math.log(height_b) - math.log(depth_a)


def truncated_length(real: PleatedRealization, leaf,
                     conv: TruncationConvention) -> float:
    """Length of a spiral leaf between the horoballs at its two ends."""
    p, i = leaf
    j = (i + 1) % 3
    wit_i = real.sample.end_witness(p, i, real.zeta, conv)
    wit_j = real.sample.end_witness(p, j, real.zeta, conv)
    return truncated_geodesic_length(real.xi[p][i], real.xi[p][j],
                                     wit_i, wit_j)


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
    if isinstance(key, str):
        return cuff_bending(real, key), real.cuff_lengths[key].real
    return leaf_bending(real, key), truncated_length(real, key, conv)


def bending_data(real: PleatedRealization,
                 conv: TruncationConvention | None = None) -> BendingData:
    if conv is None:
        conv = TruncationConvention.uniform(real.pd)
    terms = {leaf.key: schlafli_term(real, leaf.key, conv)
             for leaf in build_lamination(real.pd).leaves}
    cuffs = {k: v for k, v in terms.items() if isinstance(k, str)}
    leaves = {k: v for k, v in terms.items() if not isinstance(k, str)}
    return BendingData(leaf_angles={k: v[0] for k, v in leaves.items()},
                       cuff_angles={k: v[0] for k, v in cuffs.items()},
                       leaf_lengths={k: v[1] for k, v in leaves.items()},
                       cuff_lengths={k: v[1] for k, v in cuffs.items()})
