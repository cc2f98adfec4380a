"""Volume functions and first variation along bending paths.

The derivative of hyperbolic volume along a path of pleated surfaces
is half the sum of length times angle-velocity over the bending locus:
closed cuffs contribute their real translation length, spiral leaves
their horoball-truncated length.  The truncation scale drops out:
rescaling the horoball of a cuff by e^delta lengthens every leaf end
at it by delta, and the angles of the leaf ends at a cuff sum to a
constant along a path, so the integrand moves by delta times the
derivative of that constant.  Every entry point here therefore
truncates at unit horoballs, TruncationConvention.uniform.

Volumes of ideal tetrahedra are computed from the Lobachevsky function
via its Clausen-series expansion, accelerated analytically so the tail
is geometric (plain partial sums of the defining Fourier series cannot
reach the tolerances used here).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (AngleUnwrapFailure, DegenerateTetrahedron,
                     EndpointsMismatch, PleatbendError)
from .moebius import reduce_angle_array
# orientation_start_endpoints: perfbench's tracer and the tests read it here
from .pleated import (SampleImages, TruncationConvention, _loxodromic_start,
                      orientation_start_endpoints, path_terms,
                      resolve_endpoints, sample_images)
from .representation import (RepresentationPath, fingerprint,
                             standard_word_list)
from .topology import OrientationAssignment, enumerate_orientations

EPS_LOOP = 1e-8   # fingerprint distance below which a path counts as closed
EPS_TETRA = 1e-12  # distance of a tetrahedron's parameter from 0, 1, infinity

# ---------------------------------------------------------------------------
# Lobachevsky function and ideal tetrahedra

# pi to 60 digits: its 160th power, the largest the Clausen series
# reads, is still exact far below the last place of a float
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
_ZETA_CACHE: list[float] = []


def _zetas(n: int) -> list[float]:
    """zeta(2k) for k = 1, 2, ... (at least n values), each rounded once.

    Euler's recurrence gives zeta(2k) = r_k pi^(2k) with exact rationals
    r_1 = 1/6 and (k + 1/2) r_k = sum_{0<j<k} r_j r_(k-j).
    """
    if len(_ZETA_CACHE) < n:
        r = [Fraction(1, 6)]
        for k in range(2, n + 1):
            r.append(sum(r[j] * r[k - 2 - j] for j in range(k - 1))
                     / Fraction(2 * k + 1, 2))
        _ZETA_CACHE[:] = [float(rk * _PI ** (2 * k))
                          for k, rk in enumerate(r, start=1)]
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


def ideal_tetra_volume(z: complex) -> float:
    """Signed volume of the ideal tetrahedron (0, infinity, 1, z).

    Positive for Im z > 0, zero for real cross-ratios, negative below
    the axis; degenerate parameters 0, 1, infinity are rejected.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DegenerateTetrahedron("cross-ratio parameter is not finite")
    if abs(z) < EPS_TETRA or abs(z - 1) < EPS_TETRA or abs(z) > 1 / EPS_TETRA:
        raise DegenerateTetrahedron(f"cross-ratio parameter {z} is degenerate")
    return (lobachevsky(cmath.phase(z))
            + lobachevsky(cmath.phase(1 / (1 - z)))
            + lobachevsky(cmath.phase(1 - 1 / z)))


# ---------------------------------------------------------------------------
# the sample pipeline
#
# An endpoint selection is tracked along a path as one or more chains:
# integrate_volume_change tracks one, from the selection it is given;
# vol_gamma tracks two, from the labels "attracting" and "repelling",
# which the all-forward and the all-back orientations pick at the path
# start.  An orientation takes one chain per cuff.  Each Schlafli term,
# one per leaf of build_lamination, reads the endpoints of only a few
# cuffs, its support, so the pipeline
# evaluates every term once per pattern of chains on its support.
# pleated.path_terms stacks those values as rows of one array and hands
# over a table of the row that every orientation reads for every leaf;
# each orientation's integrand is summed from its rows, leaf by leaf.
#
# One sample_images pass per call evaluates the word images and slot
# commutator traces of all samples; one geometry pass over its arrays then
# computes everything else for all samples and patterns, and all cuffs
# or pants, at once: the cuffs' kinds and fixed points, the tracked
# endpoints, the adaptedness check, the placed plaques and every term's
# cross-ratio, frames, horoball witnesses, logarithms and arguments;
# tracking is closed form too, with no loop over the samples.  The angles
# of all the rows that some orientation reads are then unwrapped
# together, each row a running sum of its reduced steps, and
# differentiated and integrated as arrays.


def _surface(path: RepresentationPath):
    if path.pd is None:
        raise PleatbendError("path carries no pants decomposition")
    return path.pd


def _samples(path: RepresentationPath,
             steps: int | None) -> tuple[np.ndarray, SampleImages]:
    """The sample times of path, every (intervals / steps)-th when steps
    is given, and the sample_images pass at them.  The surface is
    checked first, then steps."""
    pd = _surface(path)
    n = len(path) - 1
    steps = n if steps is None else operator.index(steps)
    if steps <= 0 or n % steps != 0:
        raise PleatbendError(
            f"cannot take {steps} steps over {n} stored intervals")
    indices = range(0, n + 1, n // steps)
    if len(indices) < 3:
        raise PleatbendError("need at least three samples to integrate")
    return np.array(path.ts)[::indices.step], sample_images(
        path.generators, path.matrices[..., ::indices.step], pd, indices)


def angle_series(path: RepresentationPath, zeta: str | dict) -> dict:
    """Bending angle of every term at every sample of a path.

    The endpoint selection is resolved at the first sample and tracked
    forward; keys are cuff ids and (pants, i) leaf keys.  Only the
    placement and the angle stages run, so a guard of the truncated
    lengths, which this reports none of, cannot fail it.
    """
    images = sample_images(path.generators, path.matrices, _surface(path))
    table, angles, _, _ = path_terms(images, [zeta], conv=None)
    leaves = images.lamination.leaves      # the table's columns
    return {leaf.key: angles[r].tolist()
            for leaf, r in zip(leaves, table[0].tolist())}


def schlafli_derivative(path: RepresentationPath, t: float,
                        zeta: str | dict) -> float:
    """dV/dt at an interior sample of a path.

    The endpoint selection is resolved at the sample itself
    (resolve_endpoints) and tracked to its neighbors; the value is the
    integrand of integrate_volume_change on those three samples, read at
    the middle one.  Cuffs whose length is purely imaginary (elliptic
    crossings) contribute nothing through their own term.
    """
    k = path.index_of(t)
    if k == 0 or k == len(path) - 1:
        raise PleatbendError(
            f"t={t} is an endpoint; the derivative needs an interior sample")
    pd = _surface(path)
    images = sample_images(path.generators, path.matrices[..., k - 1:k + 2],
                           pd, range(k - 1, k + 2))
    for i in range(3):      # evaluation failures first, in sample order
        failure = images.failure(i)
        if failure is not None:
            raise failure
    zeta = resolve_endpoints(path.rep(k), pd, zeta)
    table, angles, lengths, _ = path_terms(images, [zeta],
                                           TruncationConvention.uniform(pd))
    velocities, jumps = _velocities(np.array(path.ts[k - 1:k + 2]), angles,
                                    lengths)
    _raise_first_failure(table, jumps)
    return float(_integrand(table, velocities)[0, 1])


# ---------------------------------------------------------------------------
# integrated volume change


@dataclass(frozen=True)
class VolumePathResult:
    """Integrated first variation of volume along a sampled path.

    delta_v is composite Simpson, by closed-form interpolatory weights,
    over the sampled length-weighted angle velocity; error_estimate
    compares against the half-resolution subsample and is NaN when the
    sample count does not allow one or the subsample fails to unwrap.
    """

    delta_v: float
    error_estimate: float
    ts: tuple[float, ...]
    cumulative: tuple[float, ...]
    per_step: tuple[float, ...]

    @property
    def steps(self) -> int:
        return len(self.ts) - 1


def _unwrap_angles(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lift sampled angle sequences, one per row of values (rows, n), to
    continuous real sequences: the first sample plus the running sum of
    the steps between samples, each reduced into (-pi, pi].

    A step of pi or more is an ambiguous branch jump, not data.  A row
    with one is NaN, and its jump, the second array, is its first such
    step; a row that unwraps has jump NaN.

    >>> thetas, jumps = _unwrap_angles(np.array([[3.0, -3.0], [0, math.pi]]))
    >>> thetas.tolist(), jumps.tolist()    # -3 lifts past pi to 2 pi - 3
    ([[3.0, 3.2831853071795862], [nan, nan]], [nan, 3.141592653589793])
    """
    steps = reduce_angle_array(np.diff(values, axis=1))
    thetas = np.cumsum(np.concatenate([values[:, :1], steps], axis=1), axis=1)
    jumps = np.abs(steps) >= math.pi * (1 - 1e-9)
    failed = jumps.any(axis=1)
    thetas[failed] = np.nan
    first = steps[np.arange(len(steps)), jumps.argmax(axis=1)]
    return thetas, np.where(failed, first, np.nan)


def _node_derivatives(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Derivative at every node from the local 3-point quadratic.

    ys holds one sampled series per row, (..., n).
    """
    n = len(ts)
    j = np.clip(np.arange(n) - 1, 0, n - 3)
    t0, t1, t2, t = ts[j], ts[j + 1], ts[j + 2], ts
    y0, y1, y2 = ys[..., j], ys[..., j + 1], ys[..., j + 2]
    return (y0 * (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
            + y1 * (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
            + y2 * (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1)))


def _step_weights(ts: np.ndarray):
    """Banded weights of composite Simpson, split per interval.

    Interval k lies in the panel of nodes j, j+1, j+2 with
    j = min(2 (k // 2), n - 3); returns j and the integrals over the
    interval of the panel's three Lagrange basis quadratics, in closed
    form.  In s = t - ts[j+1] the panel nodes are -h0, 0, h1, and
    interval k is the half [-h0, 0] or [0, h1]; a trailing odd interval
    is the right half of the last panel.
    """
    n = len(ts)
    k = np.arange(n - 1)
    j = np.minimum(2 * (k // 2), n - 3)
    left = k == j
    h = np.diff(ts)
    # p: length of the half integrated over, q: of the panel's other half
    p, q = h, h[np.where(left, j + 1, j)]
    near = p * (2 * p + 3 * q) / (6 * (p + q))
    mid = p * (p + 3 * q) / (6 * q)
    far = -p * p * p / (6 * q * (p + q))
    return j, np.where(left, near, far), mid, np.where(left, far, near)


def _per_step_integrals(ts: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Composite Simpson split into per-interval contributions.

    Each pair of intervals carries one interpolating quadratic; its
    restriction to the two half-panels sums back to the Simpson rule
    exactly.  A trailing odd interval reuses the last quadratic.  The
    half-panel integrals are closed-form interpolatory weights applied
    to the samples, fs (..., n), giving (..., n - 1).

    >>> ts = np.array([0.0, 0.5, 2.0])
    >>> steps = _per_step_integrals(ts, ts ** 2)   # 1/24 and 21/8
    >>> float(steps.sum()) == 8 / 3
    True
    """
    j, w0, w1, w2 = _step_weights(ts)
    return fs[..., j] * w0 + fs[..., j + 1] * w1 + fs[..., j + 2] * w2


def _velocities(ts: np.ndarray, angles: np.ndarray,
                lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """length · d(angle)/dt of every row of angles and lengths, and the
    jump of each row, as _unwrap_angles gives them.  A row that failed
    to unwrap is NaN."""
    thetas, jumps = _unwrap_angles(angles)
    return lengths * _node_derivatives(ts, thetas), jumps


def _integrand(table: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """½ Σ length · angle-velocity under every orientation (a row of
    table), summed in term order; NaN under an orientation that reads a
    series that failed to unwrap."""
    total = np.zeros((len(table), velocities.shape[1]))
    for column in table.T:
        total += velocities[column]
    return 0.5 * total


def _raise_first_failure(table: np.ndarray, jumps: np.ndarray) -> None:
    """Raise the unwrap failure that integrating orientation by
    orientation, term by term, meets first."""
    hit = jumps[table][~np.isnan(jumps[table])]   # row-major: o, then t
    if len(hit):
        raise AngleUnwrapFailure(f"bending angle moved {hit[0]:.3f} in one "
                                 "step; refine the path")


def _integrate(ts: np.ndarray, images: SampleImages,
               starts) -> list[VolumePathResult]:
    """One VolumePathResult per orientation, a chain per cuff, in
    enumerate_orientations' order: one with one chain, 2^cuffs with two.

    Composite Simpson over the samples by closed-form interpolatory
    weights, every orientation at once, with the error estimated by
    Richardson comparison against the half-resolution subsample (NaN
    when the interval count is odd or below four, or the subsample
    fails to unwrap).
    images is the sample pass at the times ts, passed to path_terms
    with starts, which numbers the orientations.
    """
    table, angles, lengths, deferred = path_terms(
        images, starts, TruncationConvention.uniform(images.pd))
    # only the rows some orientation reads, numbered anew: after a
    # deferred failure the others may hold inf or NaN.  Orientation by
    # orientation, the first is integrated, or raises its own failure,
    # before the deferred one is met.
    rows, inverse = np.unique(table, return_inverse=True)
    table = inverse.reshape(table.shape)
    angles, lengths = angles[rows], lengths[rows]
    fine, jumps = _velocities(ts, angles, lengths)
    _raise_first_failure(table, jumps)
    if deferred is not None:
        raise deferred
    per_step = _per_step_integrals(ts, _integrand(table, fine))
    # running sums, step by step (np.sum would add pairwise)
    cumulative = np.cumsum(np.pad(per_step, ((0, 0), (1, 0))), axis=1)
    delta = cumulative[:, -1]
    err = np.full(len(table), np.nan)
    if len(ts) % 2 == 1 and len(ts) >= 5:
        # a subsample series that fails to unwrap is NaN, and so is the
        # estimate of every orientation that reads it
        coarse, _ = _velocities(ts[::2], angles[:, ::2], lengths[:, ::2])
        half = np.cumsum(_per_step_integrals(ts[::2],
                                             _integrand(table, coarse)),
                         axis=1)[:, -1]
        err = np.abs(delta - half) / 3
    ts_out = tuple(ts.tolist())
    return [VolumePathResult(delta_v=d, error_estimate=e, ts=ts_out,
                             cumulative=tuple(c), per_step=tuple(p))
            for d, e, c, p in zip(delta.tolist(), err.tolist(),
                                  cumulative.tolist(), per_step.tolist())]


def integrate_volume_change(path: RepresentationPath,
                            zeta: str | dict, *,
                            steps: int | None = None) -> VolumePathResult:
    """Integrate dV along a path of adapted representations.

    zeta is a start label ("attracting" or "repelling"), resolved at
    the first sample, or a selection dict, tracked to it; either is
    then tracked forward.  The integrand is the per-sample
    length-weighted angle velocity; composite Simpson over the samples,
    with the error estimated by Richardson comparison against the
    half-resolution subsample (NaN when the interval count is odd or
    below four).
    steps optionally subsamples the stored path (its interval count
    must divide the stored one).
    """
    ts, images = _samples(path, steps)
    return _integrate(ts, images, [zeta])[0]


# ---------------------------------------------------------------------------
# orientation-summed volume and loop defects


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
        """Sum of the orientations' error estimates, NaN ones left out;
        NaN when no orientation has one."""
        estimates = [r.error_estimate for r in self.results
                     if not math.isnan(r.error_estimate)]
        err = 0.0
        for e in estimates:
            err += e
        return err if estimates else math.nan


def vol_gamma(path: RepresentationPath, *,
              steps: int | None = None) -> VolGammaResult:
    """Integrated first variation under all 2^(3g-3) cuff orientations.

    Forward picks the attracting fixed point of a cuff at the path
    start, backward the repelling one, tracked along the path: once
    every cuff is loxodromic there, two chains start from the labels
    "attracting" and "repelling".  Every result equals
    integrate_volume_change from that orientation's start endpoints,
    bit for bit, but each representation is checked
    once and each Schlafli term is evaluated once per pattern of
    endpoints on the cuffs it reads.  A failure under the all-forward
    orientation is raised as integrating orientation by orientation
    raises it.  Otherwise the first failure met along the path is
    raised; when guards trip under several orientations, that loop may
    have reported another one.  steps subsamples the stored path as in
    integrate_volume_change, and is checked before any sample is read.
    """
    ts, images = _samples(path, steps)
    failure = images.failure(0)
    if failure is not None:
        raise failure
    _loxodromic_start(images)
    results = _integrate(ts, images, ["attracting", "repelling"])
    return VolGammaResult(tuple(enumerate_orientations(images.pd)),
                          tuple(results))


@dataclass(frozen=True)
class LoopDefectReport:
    """The orientation-summed change around a loop: defect and
    error_estimate are the total and the error estimate of the loop's
    vol_gamma result, and fingerprint_distance is how far apart the
    loop's endpoint characters are."""

    defect: float
    error_estimate: float
    fingerprint_distance: float


def loop_defect(loop: RepresentationPath) -> LoopDefectReport:
    """Orientation-summed volume change around a closed loop.

    Requires the two endpoint representations to have character
    fingerprints within EPS_LOOP (they may differ by conjugation); the
    defect is expected to vanish up to quadrature error.
    """
    words = standard_word_list(loop.generators)
    f0 = fingerprint(loop.rep(0), words)
    f1 = fingerprint(loop.rep(-1), words)
    d = f0.distance(f1)
    if d > EPS_LOOP:
        raise EndpointsMismatch(
            f"loop endpoints differ by {d:.3e} in character fingerprint")
    result = vol_gamma(loop)
    return LoopDefectReport(defect=result.total,
                            error_estimate=result.error_estimate,
                            fingerprint_distance=d)
