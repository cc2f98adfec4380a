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
from dataclasses import dataclass, field

from .errors import (DegenerateConfiguration, DegenerateTriangle, NotAdapted,
                     PleatbendError)
from .moebius import (EPS_CLASS, IsometryClass, MoebiusMap, ProjectivePoint,
                      chordal, classify, complex_length, cross_ratio,
                      fixed_points, normalizing_map, reduce_angle,
                      trace_squared)
from .representation import Representation, evaluate_word
from .topology import PantsDecomposition, SpiralLeaf, TransverseArc, \
    CuffCrossing, LeafCrossing, invert_word

EPS_SEP = 1e-9

_LABELS = ("attracting", "repelling", "elliptic_0", "elliptic_1")


@dataclass(frozen=True)
class EndpointChoice:
    """Which fixed point of each cuff the leaves spiral toward.

    Per cuff either a label ("attracting", "repelling", "elliptic_0",
    "elliptic_1") or an explicit point snapped to the nearer fixed
    point.  Labels attracting/elliptic_0 select the first point
    reported by fixed_points, repelling/elliptic_1 the second; for
    loxodromic cuffs the first is the attracting one.
    """

    labels: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)
    default: str = "attracting"

    @classmethod
    def uniform(cls, label: str = "attracting") -> "EndpointChoice":
        if label not in _LABELS:
            raise PleatbendError(f"unknown endpoint label {label!r}")
        return cls(default=label)

    def label_for(self, cuff_id: str) -> str:
        lab = self.labels.get(cuff_id, self.default)
        if lab not in _LABELS:
            raise PleatbendError(f"unknown endpoint label {lab!r} for {cuff_id!r}")
        return lab


def resolve_endpoints(rep: Representation, pd: PantsDecomposition,
                      choice: EndpointChoice,
                      eps_class: float = EPS_CLASS) -> dict:
    """Chosen and unchosen fixed point per cuff: cuff id -> (zeta, other)."""
    out = {}
    for cuff in pd.cuffs:
        m = evaluate_word(rep, cuff.word)
        kind = classify(m, eps_class)
        if kind in (IsometryClass.IDENTITY, IsometryClass.PARABOLIC):
            raise NotAdapted(f"cuff {cuff.id!r} is {kind}")
        first, second = fixed_points(m, eps_class)
        if cuff.id in choice.points:
            p = choice.points[cuff.id]
            pair = (first, second) if chordal(p, first) <= chordal(p, second) \
                else (second, first)
        else:
            lab = choice.label_for(cuff.id)
            pair = (first, second) if lab in ("attracting", "elliptic_0") \
                else (second, first)
        out[cuff.id] = pair
    return out


def track_endpoints(rep: Representation, pd: PantsDecomposition,
                    previous: dict, eps_class: float = EPS_CLASS) -> dict:
    """Continue an endpoint selection to a nearby representation.

    Each cuff's new fixed points are matched to the previously chosen
    one by chordal distance; if the previous point is not clearly
    closer to one of them than the points are to each other, tracking
    is ambiguous and fails.
    """
    from .errors import OrientationTrackingFailure
    out = {}
    for cuff in pd.cuffs:
        m = evaluate_word(rep, cuff.word)
        kind = classify(m, eps_class)
        if kind in (IsometryClass.IDENTITY, IsometryClass.PARABOLIC):
            raise NotAdapted(f"cuff {cuff.id!r} is {kind}")
        first, second = fixed_points(m, eps_class)
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
            parts.append(f"cuff {c} is {self.cuff_kinds[c]}")
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


def check_adapted(rep: Representation, pd: PantsDecomposition,
                  eps_class: float = EPS_CLASS) -> AdaptednessReport:
    """Adaptedness of a representation to a decomposition.

    Every cuff image must be non-trivial and non-parabolic, and the
    three slot words of each pants must have pairwise disjoint fixed
    sets (commutator squared-trace test).
    """
    kinds = {}
    bad = []
    for cuff in pd.cuffs:
        kind = classify(evaluate_word(rep, cuff.word), eps_class)
        kinds[cuff.id] = kind
        if kind in (IsometryClass.IDENTITY, IsometryClass.PARABOLIC):
            bad.append(cuff.id)
    reports = []
    for p in range(len(pd.pants)):
        maps = [evaluate_word(rep, pd.slot_word(p, k)) for k in range(3)]
        for i, j in ((0, 1), (1, 2), (2, 0)):
            flagged, tr2 = shared_endpoint_check(maps[i], maps[j], eps_class)
            reports.append(PairSharing(pants=p, slots=(i, j),
                                       tr2_commutator=tr2, flagged=flagged))
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
    and cuff lengths.  Word images are kept for the life of the object,
    so every endpoint pattern placed on the same representation shares
    them.
    """

    def __init__(self, rep: Representation, pd: PantsDecomposition,
                 eps_class: float = EPS_CLASS):
        report = check_adapted(rep, pd, eps_class)
        if not report.adapted:
            raise NotAdapted(report.summary())
        self.report = report
        self.rep = rep
        self.pd = pd
        self._images: dict[str, MoebiusMap] = {}
        self.holonomy = tuple(
            tuple(self.word(pd.slot_word(p, k)) for k in range(3))
            for p in range(len(pd.pants)))
        self.cuff_lengths = {c.id: complex_length(self.word(c.word), eps_class)
                             for c in pd.cuffs}

    def word(self, word: str) -> MoebiusMap:
        """Image of a word, evaluated once per sample."""
        m = self._images.get(word)
        if m is None:
            m = self._images[word] = evaluate_word(self.rep, word)
        return m

    def place(self, p: int, zeta: dict, eps_sep: float = EPS_SEP) -> tuple:
        """Vertices of pants p for the chosen endpoints of its cuffs.

        zeta maps at least the cuffs of pants p to (chosen, other).
        Raises DegenerateTriangle when vertices of either plaque are
        closer than eps_sep.
        """
        row = []
        for end in self.pd.pants[p].cuff_ends:
            base = zeta[end.cuff][0]
            if end.conjugator:
                base = self.word(end.conjugator).apply(base)
            row.append(base)
        hol = self.holonomy[p]
        for tri in (tuple(row), (row[0], row[1], hol[1].apply(row[2]))):
            for i in range(3):
                d = chordal(tri[i], tri[(i + 1) % 3])
                if d < eps_sep:
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

    def leaf_keys(self) -> list[tuple[int, int]]:
        return [(p, i) for p in range(len(self.pd.pants)) for i in range(3)]

    def leaf_endpoints(self, p: int, i: int) -> tuple:
        return self.xi[p][i], self.xi[p][(i + 1) % 3]

    def leaf_opposites(self, p: int, i: int) -> tuple:
        """Third vertices of the two plaques adjacent to a spiral leaf."""
        up = self.xi[p][(i + 2) % 3]
        down = self.holonomy[p][(i + 1) % 3].apply(up)
        return up, down


def _as_leaf_key(leaf) -> tuple[int, int]:
    if isinstance(leaf, SpiralLeaf):
        return leaf.pants, leaf.index
    p, i = leaf
    return int(p), int(i)


def realize(rep: Representation, pd: PantsDecomposition,
            endpoints: EndpointChoice | dict | None = None,
            eps_class: float = EPS_CLASS,
            eps_sep: float = EPS_SEP) -> PleatedRealization:
    """Realize the plaques of every pants for an adapted representation.

    endpoints may be an EndpointChoice, an already-resolved dict from
    resolve_endpoints/track_endpoints, or None (all attracting).
    Raises NotAdapted when the adaptedness check fails and
    DegenerateTriangle when realized plaque vertices collide.  This is
    AdaptedSample followed by AdaptedSample.place on every pants.
    """
    sample = AdaptedSample(rep, pd, eps_class)
    if endpoints is None:
        endpoints = EndpointChoice.uniform("attracting")
    if isinstance(endpoints, dict):
        zeta = endpoints
    else:
        zeta = resolve_endpoints(rep, pd, endpoints, eps_class)
    xi = tuple(sample.place(p, zeta, eps_sep) for p in range(len(pd.pants)))
    return PleatedRealization(sample=sample, zeta=zeta, xi=xi)


# ---------------------------------------------------------------------------
# bending angles


def leaf_bending(real: PleatedRealization, leaf) -> float:
    """Exterior bending angle across one spiral leaf, in (-pi, pi].

    The two plaques adjacent to the leaf share its endpoints; the angle
    is read off the cross-ratio position of the far vertices: 0 when
    the plaques form one flat ideal quadrilateral.
    """
    p, i = _as_leaf_key(leaf)
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
    core = cuff.word * winding if winding >= 0 else invert_word(cuff.word) * (-winding)
    w0 = v_plus + core + invert_word(v_minus)
    W = real.sample.word(w0)

    zeta_c, other_c = real.zeta[cuff_id]
    if v_plus:
        lift = real.sample.word(v_plus)
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


def cuff_horoball_witness(real: PleatedRealization, cuff_id: str,
                          conv: TruncationConvention) -> tuple[complex, float]:
    """Interior point on the cuff's horosphere, in upper-space coordinates."""
    zeta_c, other_c = real.zeta[cuff_id]
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
    p, i = _as_leaf_key(leaf)
    witnesses = []
    points = []
    for slot in (i, (i + 1) % 3):
        end = real.pd.pants[p].cuff_ends[slot]
        wit = cuff_horoball_witness(real, end.cuff, conv)
        if end.conjugator:
            wit = real.sample.word(end.conjugator).apply_interior(*wit)
        witnesses.append(wit)
        points.append(real.xi[p][slot])
    return truncated_geodesic_length(points[0], points[1],
                                     witnesses[0], witnesses[1])


@dataclass(frozen=True)
class BendingData:
    """All Schlafli ingredients of one realization."""

    leaf_angles: dict               # (pants, i) -> angle
    cuff_angles: dict               # cuff id -> angle
    leaf_lengths: dict              # (pants, i) -> truncated length
    cuff_lengths: dict              # cuff id -> real translation length

    def to_dict(self) -> dict:
        return {
            "leaf_angles": {f"{p}.{i}": v
                            for (p, i), v in sorted(self.leaf_angles.items())},
            "cuff_angles": dict(sorted(self.cuff_angles.items())),
            "leaf_lengths": {f"{p}.{i}": v
                             for (p, i), v in sorted(self.leaf_lengths.items())},
            "cuff_lengths": dict(sorted(self.cuff_lengths.items())),
        }


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
    cuffs = {c.id: schlafli_term(real, c.id, conv) for c in real.pd.cuffs}
    leaves = {key: schlafli_term(real, key, conv) for key in real.leaf_keys()}
    return BendingData(leaf_angles={k: v[0] for k, v in leaves.items()},
                       cuff_angles={k: v[0] for k, v in cuffs.items()},
                       leaf_lengths={k: v[1] for k, v in leaves.items()},
                       cuff_lengths={k: v[1] for k, v in cuffs.items()})
