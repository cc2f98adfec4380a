"""Volume functions and first variation along bending paths.

The derivative of hyperbolic volume along a path of pleated surfaces
is half the sum of length times angle-velocity over the bending locus:
closed cuffs contribute their real translation length, spiral leaves
their horoball-truncated length.  The truncation scale drops out
because the four leaf ends at a cuff turn by opposite amounts on the
two sides.

Volumes of ideal tetrahedra are computed from the Lobachevsky function
via its Clausen-series expansion, accelerated analytically so the tail
is geometric (plain partial sums of the defining Fourier series cannot
reach the tolerances used here).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _riemann_zeta

from .errors import (AngleUnwrapFailure, DegenerateTetrahedron,
                     EndpointsMismatch, OrientationTrackingFailure,
                     PleatbendError)
from .moebius import IsometryClass, classify, fixed_points, reduce_angle
from .pleated import (AdaptedSample, EndpointChoice, PleatedRealization,
                      TruncationConvention, resolve_endpoints, schlafli_term,
                      track_endpoints)
from .representation import (RepresentationPath, evaluate_word, fingerprint,
                             standard_word_list)
from .topology import OrientationAssignment, enumerate_orientations

# ---------------------------------------------------------------------------
# Lobachevsky function and ideal tetrahedra

_ZETA_CACHE: list[float] = []


def _zetas(n: int) -> list[float]:
    while len(_ZETA_CACHE) < n:
        k = len(_ZETA_CACHE) + 1
        _ZETA_CACHE.append(float(_riemann_zeta(2 * k)))
    return _ZETA_CACHE


def _clausen2(x: float) -> float:
    """Clausen function Cl2 on the reduced argument."""
    x = math.remainder(x, 2 * math.pi)
    if x == 0.0:
        return 0.0
    # Cl2(x) = x - x log|x| + sum_n zeta(2n)/(n(2n+1)) x (x/2pi)^{2n}
    acc = x - x * math.log(abs(x))
    r = (x / (2 * math.pi)) ** 2
    zetas = _zetas(80)
    power = x
    for n in range(1, 81):
        power *= r
        term = zetas[n - 1] * power / (n * (2 * n + 1))
        acc += term
        if abs(term) < 1e-17 * (abs(acc) + 1e-300):
            break
    return acc


def lobachevsky(theta: float) -> float:
    """The Lobachevsky function, odd and pi-periodic.

    >>> round(lobachevsky(0.0), 15)
    0.0
    """
    return 0.5 * _clausen2(2 * theta)


def ideal_tetra_volume(z: complex, eps: float = 1e-12) -> float:
    """Signed volume of the ideal tetrahedron (0, infinity, 1, z).

    Positive for Im z > 0, zero for real cross-ratios, negative below
    the axis; degenerate parameters 0, 1, infinity are rejected.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DegenerateTetrahedron("cross-ratio parameter is not finite")
    if abs(z) < eps or abs(z - 1) < eps or abs(z) > 1 / eps:
        raise DegenerateTetrahedron(f"cross-ratio parameter {z} is degenerate")
    return (lobachevsky(cmath.phase(z))
            + lobachevsky(cmath.phase(1 / (1 - z)))
            + lobachevsky(cmath.phase(1 - 1 / z)))


# ---------------------------------------------------------------------------
# the sample pipeline
#
# An endpoint selection is tracked along a path as one or more chains:
# integrate_volume_change tracks one, from the selection it is given;
# vol_gamma tracks two, from the attracting and from the repelling fixed
# point of every cuff at the path start.  An orientation takes one chain
# per cuff.  Each Schlafli term reads the endpoints of only a few cuffs,
# its support, so the pipeline evaluates every term once per pattern of
# chains on its support, and each orientation's integrand is assembled
# from those values.


@dataclass(frozen=True)
class _Term:
    key: object                     # cuff id or (pants, leaf index)
    support: tuple[int, ...]        # indices of the cuffs it reads


def _pants_cuffs(pd) -> list[tuple[int, ...]]:
    """Indices of the distinct cuffs of every pants."""
    index = {c.id: j for j, c in enumerate(pd.cuffs)}
    return [tuple(sorted({index[e.cuff] for e in pants.cuff_ends}))
            for pants in pd.pants]


def _terms(pd) -> list[_Term]:
    """The Schlafli terms, cuffs first, then leaves pants by pants.

    A leaf's angle and truncated length read the cuffs of its pants; a
    cuff's angle reads the cuffs of both pants next to it (the cuff
    itself among them); a cuff's length reads no endpoint.
    """
    around = _pants_cuffs(pd)
    terms = []
    for c in pd.cuffs:
        (pp, _), (pm, _) = pd.signed_ends_of(c.id)
        terms.append(_Term(c.id, tuple(sorted({*around[pp], *around[pm]}))))
    for p in range(len(pd.pants)):
        terms += [_Term((p, i), around[p]) for i in range(3)]
    return terms


def _surface(path: RepresentationPath):
    if path.pd is None:
        raise PleatbendError("path carries no pants decomposition")
    return path.pd


def _sample_indices(path: RepresentationPath, steps: int | None) -> list[int]:
    n = len(path) - 1
    if steps is None:
        indices = list(range(len(path)))
    else:
        if steps <= 0 or n % steps != 0:
            raise PleatbendError(
                f"cannot take {steps} steps over {n} stored intervals")
        indices = list(range(0, len(path), n // steps))
    if len(indices) < 3:
        raise PleatbendError("need at least three samples to integrate")
    return indices


def _term_series(path: RepresentationPath, indices, starts,
                 conv: TruncationConvention
                 ) -> tuple[dict, PleatbendError | None]:
    """Angle and length of every term at every sample, per chain pattern.

    starts holds the start selection of each chain as a dict, tracked
    to the first sample; chain 0 may instead start from an
    EndpointChoice, resolved at the first sample.  Each
    representation is checked for adaptedness once, and every pants is
    placed (with the plaque check) for every pattern of chains on its
    cuffs.  Returns ({(term key, pattern): (angles, lengths)}, deferred),
    where pattern gives the chain of each cuff in the term's support.

    On every sample the orientation that takes chain 0 everywhere is
    realized first, as integrating it alone would, and its failures
    raise at once.  The first failure of any other pattern is returned
    as deferred instead, and from then on only chain 0 is carried.
    """
    pd = _surface(path)
    terms = _terms(pd)
    around = _pants_cuffs(pd)
    ids = [c.id for c in pd.cuffs]
    series: dict = {}
    deferred = None
    zetas = list(starts)
    for i in indices:
        rep = path.reps[i]
        if i == indices[0] and isinstance(zetas[0], EndpointChoice):
            zetas[0] = resolve_endpoints(rep, pd, zetas[0])
        else:
            zetas[0] = track_endpoints(rep, pd, zetas[0])
        sample = AdaptedSample(rep, pd)
        values = _pattern_values(sample, terms, around, ids, zetas[:1], conv)
        if len(zetas) > 1:
            try:
                zetas[1:] = [track_endpoints(rep, pd, z) for z in zetas[1:]]
                values.update(_pattern_values(sample, terms, around, ids,
                                              zetas, conv))
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


def _pattern_values(sample: AdaptedSample, terms, around, ids, zetas,
                    conv: TruncationConvention) -> dict:
    """(angle, length) of every term at one sample, on the patterns that
    take the last of the given chains somewhere.

    With one chain that is the one pattern taking chain 0 everywhere;
    with two, every pattern that takes chain 1 on some cuff.
    """
    chains = range(len(zetas))
    last = len(zetas) - 1
    placed = {}
    for p, cuffs in enumerate(around):
        for pattern in itertools.product(chains, repeat=len(cuffs)):
            zeta = {ids[j]: zetas[b][ids[j]] for j, b in zip(cuffs, pattern)}
            placed[p, pattern] = sample.place(p, zeta)
    # a term pattern is realized as the orientation that takes chain 0
    # off the support; the term's value does not read those cuffs
    realizations = {}
    values = {}
    for term in terms:
        for pattern in itertools.product(chains, repeat=len(term.support)):
            if max(pattern, default=0) != last:
                continue
            ori = [0] * len(ids)
            for j, b in zip(term.support, pattern):
                ori[j] = b
            ori = tuple(ori)
            real = realizations.get(ori)
            if real is None:
                real = realizations[ori] = PleatedRealization(
                    sample=sample,
                    zeta={c: zetas[b][c] for c, b in zip(ids, ori)},
                    xi=tuple(placed[p, tuple(ori[j] for j in cuffs)]
                             for p, cuffs in enumerate(around)))
            values[term.key, pattern] = schlafli_term(real, term.key, conv)
    return values


def angle_series(path: RepresentationPath, zeta: EndpointChoice | dict,
                 conv: TruncationConvention) -> dict:
    """Bending angle of every term at every sample of a path.

    The endpoint selection is resolved at the first sample and tracked
    forward; keys are cuff ids and (pants, i) leaf keys.
    """
    series, _ = _term_series(path, list(range(len(path))), [zeta], conv)
    return {key: angles for (key, _), (angles, _) in series.items()}


def schlafli_derivative(path: RepresentationPath, t: float,
                        zeta: EndpointChoice | dict,
                        conv: TruncationConvention) -> float:
    """dV/dt at an interior sample of a path.

    The endpoint selection is resolved at the sample itself and tracked
    to its neighbors; the value is the integrand of
    integrate_volume_change on those three samples, read at the middle
    one.  Cuffs whose length is purely imaginary (elliptic crossings)
    contribute nothing through their own term.
    """
    k = path.index_of(t)
    if k == 0 or k == len(path) - 1:
        raise PleatbendError(
            f"t={t} is an endpoint; the derivative needs an interior sample")
    pd = _surface(path)
    if isinstance(zeta, EndpointChoice):
        zeta = resolve_endpoints(path.reps[k], pd, zeta)
    else:
        zeta = track_endpoints(path.reps[k], pd, zeta)
    indices = [k - 1, k, k + 1]
    series, _ = _term_series(path, indices, [zeta], conv)
    ts = np.array([path.ts[i] for i in indices])
    return float(_integrand(_terms(pd), _velocities(ts, series),
                            (0,) * len(pd.cuffs), len(ts))[1])


# ---------------------------------------------------------------------------
# integrated volume change


@dataclass(frozen=True)
class VolumePathResult:
    """Integrated first variation of volume along a sampled path.

    delta_v is composite Simpson over the sampled length-weighted angle
    velocity; error_estimate compares against the half-resolution
    subsample and is NaN when the sample count does not allow one.
    """

    delta_v: float
    error_estimate: float
    ts: tuple[float, ...]
    cumulative: tuple[float, ...]
    per_step: tuple[float, ...]

    @property
    def steps(self) -> int:
        return len(self.ts) - 1


def _unwrap_angles(values) -> np.ndarray:
    """Lift a sampled angle sequence to a continuous real sequence.

    Consecutive samples must stay within pi of each other; anything
    larger is an ambiguous branch jump, not data.
    """
    out = [float(values[0])]
    for v in values[1:]:
        d = reduce_angle(v - out[-1])
        if abs(d) >= math.pi * (1 - 1e-9):
            raise AngleUnwrapFailure(
                f"bending angle moved {d:.3f} in one step; refine the path")
        out.append(out[-1] + d)
    return np.array(out)


def _node_derivatives(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Derivative at every node from the local 3-point quadratic."""
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


def _per_step_integrals(ts: np.ndarray, fs: np.ndarray) -> list[float]:
    """Composite Simpson split into per-interval contributions.

    Each pair of intervals carries one interpolating quadratic; its
    restriction to the two half-panels sums back to the Simpson rule
    exactly.  A trailing odd interval reuses the last quadratic.
    """
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


def _velocities(ts: np.ndarray, series: dict) -> dict:
    """length · d(angle)/dt per (term, pattern), or the unwrap failure."""
    out = {}
    for key, (angles, lengths) in series.items():
        try:
            theta = _unwrap_angles(angles)
        except AngleUnwrapFailure as exc:
            out[key] = exc
            continue
        out[key] = np.array(lengths) * _node_derivatives(ts, theta)
    return out


def _integrand(terms, velocities: dict, ori: tuple, n: int) -> np.ndarray:
    """½ Σ length · angle-velocity under one orientation, summed in
    term order; raises the first term's unwrap failure."""
    total = np.zeros(n)
    for term in terms:
        v = velocities[term.key, tuple(ori[j] for j in term.support)]
        if isinstance(v, AngleUnwrapFailure):
            raise v
        total += v
    return 0.5 * total


def _integrate(path: RepresentationPath, indices, starts, orientations,
               conv: TruncationConvention) -> list[VolumePathResult]:
    """One VolumePathResult per orientation (a chain index per cuff).

    Composite Simpson over the samples, with the error estimated by
    Richardson comparison against the half-resolution subsample (NaN
    when the interval count is odd or the subsample fails to unwrap).
    orientations[0] takes chain 0 on every cuff.
    """
    series, deferred = _term_series(path, indices, starts, conv)
    terms = _terms(path.pd)
    ts = np.array([path.ts[i] for i in indices])
    fine = _velocities(ts, series)
    coarse = None
    if len(ts) % 2 == 1 and len(ts) >= 5:
        coarse = _velocities(ts[::2], {key: (angles[::2], lengths[::2])
                                       for key, (angles, lengths)
                                       in series.items()})
    results = []
    for ori in orientations:
        per_step = _per_step_integrals(ts, _integrand(terms, fine, ori,
                                                      len(ts)))
        delta = float(sum(per_step))
        err = float("nan")
        if coarse is not None:
            try:
                half = float(sum(_per_step_integrals(
                    ts[::2], _integrand(terms, coarse, ori, len(ts[::2])))))
                err = abs(delta - half) / 3
            except AngleUnwrapFailure:
                pass
        cum = [0.0]
        for c in per_step:
            cum.append(cum[-1] + c)
        results.append(VolumePathResult(
            delta_v=delta, error_estimate=err, ts=tuple(float(t) for t in ts),
            cumulative=tuple(cum), per_step=tuple(per_step)))
        if deferred is not None:
            # integrating orientation by orientation, this one would
            # have passed and a later one failed
            raise deferred
    return results


def integrate_volume_change(path: RepresentationPath,
                            zeta: EndpointChoice | dict,
                            conv: TruncationConvention,
                            steps: int | None = None) -> VolumePathResult:
    """Integrate dV along a path of adapted representations.

    The endpoint selection is resolved at the first sample and tracked
    forward.  The integrand is the per-sample length-weighted angle
    velocity; composite Simpson over the samples, with the error
    estimated by Richardson comparison against the half-resolution
    subsample (NaN when the interval count is odd).  steps optionally
    subsamples the stored path (its interval count must divide the
    stored one).
    """
    indices = _sample_indices(path, steps)
    pd = _surface(path)
    return _integrate(path, indices, [zeta], [(0,) * len(pd.cuffs)], conv)[0]


# ---------------------------------------------------------------------------
# orientation-summed volume and loop defects


def orientation_start_endpoints(path: RepresentationPath, ori) -> dict:
    pd = path.pd
    rep0 = path.reps[0]
    zeta = {}
    for bit, cuff in zip(ori.forward, pd.cuffs):
        m = evaluate_word(rep0, cuff.word)
        kind = classify(m)
        if kind != IsometryClass.LOXODROMIC:
            raise OrientationTrackingFailure(
                f"cuff {cuff.id!r} is {kind} at the path start; "
                "orientation endpoints need a loxodromic cuff")
        att, rep_pt = fixed_points(m)
        zeta[cuff.id] = (att, rep_pt) if bit else (rep_pt, att)
    return zeta


@dataclass(frozen=True)
class VolGammaResult:
    """Integrated first variation under every cuff orientation."""

    orientations: tuple[OrientationAssignment, ...]
    results: tuple[VolumePathResult, ...]

    @property
    def total(self) -> float:
        """Sum of delta_v over the orientations, in enumeration order."""
        total = 0.0
        for r in self.results:
            total += r.delta_v
        return total

    @property
    def error_estimate(self) -> float:
        """Sum of the orientations' error estimates, NaN ones left out."""
        err = 0.0
        for r in self.results:
            if not math.isnan(r.error_estimate):
                err += r.error_estimate
        return err


def vol_gamma(path: RepresentationPath, conv: TruncationConvention,
              steps: int | None = None) -> VolGammaResult:
    """Integrated first variation under all 2^(3g-3) cuff orientations.

    Forward picks the attracting fixed point of a cuff at the path
    start, backward the repelling one, tracked along the path.  Every
    result equals integrate_volume_change from that orientation's
    start endpoints, bit for bit, but each representation is checked
    once and each Schlafli term is evaluated once per pattern of
    endpoints on the cuffs it reads.  A failure under the all-forward
    orientation is raised as integrating orientation by orientation
    raises it.  Otherwise the first failure met along the path is
    raised; when guards trip under several orientations, that loop may
    have reported another one.
    """
    pd = _surface(path)
    orientations = enumerate_orientations(pd)
    starts = [orientation_start_endpoints(path, ori) for ori in
              (orientations[0], orientations[-1])]   # all forward, all back
    indices = _sample_indices(path, steps)
    chains = [tuple(0 if bit else 1 for bit in ori.forward)
              for ori in orientations]
    results = _integrate(path, indices, starts, chains, conv)
    return VolGammaResult(orientations=tuple(orientations),
                          results=tuple(results))


def vol_gamma_change(path: RepresentationPath,
                     conv: TruncationConvention) -> float:
    """Change of the orientation-summed volume functional along a path.

    Sums the integrated first variation over all 2^(3g-3) cuff
    orientations (see vol_gamma).  Closed loops give 0.
    """
    return vol_gamma(path, conv).total


@dataclass(frozen=True)
class LoopDefectReport:
    defect: float
    error_estimate: float
    fingerprint_distance: float


def loop_defect(loop: RepresentationPath, conv: TruncationConvention,
                tol: float = 1e-8) -> LoopDefectReport:
    """Orientation-summed volume change around a closed loop.

    Requires the two endpoint representations to have equal character
    fingerprints (they may differ by conjugation); the defect is
    expected to vanish up to quadrature error.
    """
    gens = loop.reps[0].generators
    words = standard_word_list(gens)
    f0 = fingerprint(loop.reps[0], words)
    f1 = fingerprint(loop.reps[-1], words)
    d = f0.distance(f1)
    if d > tol:
        raise EndpointsMismatch(
            f"loop endpoints differ by {d:.3e} in character fingerprint")
    result = vol_gamma(loop, conv)
    return LoopDefectReport(defect=result.total,
                            error_estimate=result.error_estimate,
                            fingerprint_distance=d)
