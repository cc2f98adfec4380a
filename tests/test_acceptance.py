"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one pass/fail line with the measured quantity, so a
plain pytest -v run reads as a checklist.  Tolerances are the contract;
do not loosen them here.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from pleatbend import (
    CuffCrossing,
    LeafCrossing,
    MoebiusMap,
    ProjectivePoint,
    TransverseArc,
    TruncationConvention,
    angle_series,
    arc_bending,
    build_lamination,
    chordal,
    fenchel_nielsen_rep,
    fingerprint,
    fixed_points,
    ideal_tetra_volume,
    integrate_volume_change,
    jacobian_rank,
    load_document,
    lobachevsky,
    loop_defect,
    normalizing_map,
    path_from_parameters,
    path_from_reps,
    peripheral_fingerprint,
    random_representation,
    realize,
    reduce_angle,
    schlafli_derivative,
    shared_endpoint_check,
    standard_decomposition,
    standard_word_list,
    truncated_geodesic_length,
)
from pleatbend.representation import EPS_RANK
from pleatbend.pleated import path_terms, sample_images
from pleatbend.volume import (_integrand, _node_derivatives,
                              _per_step_integrals, _velocities)

REGULAR_TETRA_VOLUME = 1.0149416064096535


def report(line: str) -> None:
    print(line)


@pytest.fixture(scope="module")
def pd():
    return standard_decomposition(2)


# -- 1: quake-bend volume change against the closed form ---------------------

def test_criterion_1_pure_bend_volume(pd):
    theta = 0.5
    path = path_from_parameters(
        pd, lambda t: (2.0, 1.7, 2.3),
        lambda t: (0.3 + theta * t * 1j, 0.1, 0.2), steps=64)
    start = time.perf_counter()
    result = integrate_volume_change(path, "attracting")
    elapsed = time.perf_counter() - start
    expected = 0.5 * 2.0 * theta
    rel = abs(result.delta_v - expected) / abs(expected)
    ok = rel < 1e-6 and elapsed < 5.0
    report(f"criterion 1 {'PASS' if ok else 'FAIL'}: pure-bend delta_v "
           f"{result.delta_v:.12g} vs {expected} (rel err {rel:.3e}, "
           f"{elapsed:.2f}s)")
    assert rel < 1e-6
    assert elapsed < 5.0


# -- 2: Schlafli integral against ideal tetrahedron decompositions ----------

_TETRA_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _wedge_tetra_data(verts):
    """Truncated lengths and interior dihedral angles of an ideal tetra.

    verts are complex numbers or None for infinity; every finite vertex
    carries a diameter-1 horoball, infinity a height-1 one.  Any fixed
    horoball choice works: angle sums at each vertex link stay pi, so
    the truncation terms drop out of the Schlafli integral.
    """
    pts = [ProjectivePoint.infinity() if v is None
           else ProjectivePoint.from_complex(v) for v in verts]
    wit = [(0j, 1.0) if v is None else (complex(v), 1.0) for v in verts]
    lengths, angles = {}, {}
    for e in _TETRA_EDGES:
        a, b = pts[e[0]], pts[e[1]]
        lengths[e] = truncated_geodesic_length(a, b, wit[e[0]], wit[e[1]])
        c, d = [k for k in range(4) if k not in e]
        frame = normalizing_map(a, b)
        zc = frame.apply(pts[c]).to_complex()
        zd = frame.apply(pts[d]).to_complex()
        angles[e] = abs(reduce_angle(cmath.phase(zd) - cmath.phase(zc)))
    return lengths, angles


def _wedge_sides(w_list, th0, th1, steps=64):
    """Rotate ideal triangles (0, inf, w) about the vertical axis.

    Direct side: signed tetrahedron volumes at the two endpoint angles
    (the tetra (0, inf, w, w e^{i theta}) has cross-ratio e^{i theta}).
    Schlafli side: -1/2 sum over edges of the integral of length
    against the measured dihedral angle velocity.
    """
    direct = 0.0
    for _ in w_list:
        for th, sgn in ((th1, +1), (th0, -1)):
            direct += sgn * ideal_tetra_volume(cmath.exp(1j * th))
    ts = np.linspace(0.0, 1.0, steps + 1)
    total = 0.0
    for w in w_list:
        per_edge_l = {e: [] for e in _TETRA_EDGES}
        per_edge_a = {e: [] for e in _TETRA_EDGES}
        for t in ts:
            th = th0 + (th1 - th0) * t
            verts = [0j, None, w, w * cmath.exp(1j * th)]
            lengths, angles = _wedge_tetra_data(verts)
            for e in _TETRA_EDGES:
                per_edge_l[e].append(lengths[e])
                per_edge_a[e].append(angles[e])
        fs = np.zeros(steps + 1)
        for e in _TETRA_EDGES:
            fs += np.array(per_edge_l[e]) * _node_derivatives(
                ts, np.array(per_edge_a[e]))
        total += sum(_per_step_integrals(ts, -0.5 * fs))
    return direct, total


def test_criterion_2_wedge_decompositions():
    configs = [([1.0 + 0j], 0.1, 0.5, "single"),
               ([2.0 + 0j], 0.25, 0.8, "offset start"),
               ([1.0 + 0j, 2.5j], 0.15, 0.5, "fan of two")]
    worst = 0.0
    for ws, th0, th1, _tag in configs:
        direct, schlafli = _wedge_sides(ws, th0, th1)
        worst = max(worst, abs(direct - schlafli))
    ok = worst < 1e-4
    report(f"criterion 2 {'PASS' if ok else 'FAIL'}: wedge Schlafli vs "
           f"tetrahedra, worst diff {worst:.3e} over {len(configs)} configs")
    assert worst < 1e-4


# -- 3: loop families --------------------------------------------------------

def test_criterion_3_loop_families(pd):
    lengths = (1.1, 1.7, 2.3)
    base = (0.3, 0.1, 0.2)
    defects = {}

    retrace = path_from_parameters(
        pd, lambda t: lengths,
        lambda t: (base[0] + 0.6j * (1 - abs(2 * t - 1)),) + base[1:],
        steps=64)
    defects["retrace"] = loop_defect(retrace).defect

    full_bend = path_from_parameters(
        pd, lambda t: lengths,
        lambda t: (base[0] + 2j * math.pi * t,) + base[1:], steps=64)
    defects["2pi bend"] = loop_defect(full_bend).defect

    rep0 = fenchel_nielsen_rep(pd, lengths, base)
    E1 = np.array([[0.2, 0.5], [0.1, -0.2]], dtype=complex)
    E2 = np.array([[0.1j, -0.3], [0.4, -0.1j]], dtype=complex)
    ts = np.linspace(0.0, 1.0, 129)
    reps = []
    for t in ts:
        m = expm(0.15 * (math.cos(2 * math.pi * t) * E1
                         + math.sin(2 * math.pi * t) * E2))
        g = MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        reps.append(rep0.conjugated(g))
    circle = path_from_reps(reps, ts=ts, pd=pd)
    defects["conjugation circle"] = loop_defect(circle).defect

    worst = max(abs(v) for v in defects.values())
    ok = worst < 1e-6
    detail = ", ".join(f"{k} {v:.2e}" for k, v in defects.items())
    report(f"criterion 3 {'PASS' if ok else 'FAIL'}: loop defects {detail}")
    assert worst < 1e-6


# -- 4: truncation independence, at its cause -------------------------------

def _leaf_ends(pd):
    """Cuff id -> the spiral leaf keys with an end at it, one entry per
    end: leaf (p, i) runs between slots i and i + 1 of pants p."""
    ends = {c.id: [] for c in pd.cuffs}
    for p, pants in enumerate(pd.pants):
        for i in range(3):
            for slot in (i, (i + 1) % 3):
                ends[pants.cuff_ends[slot].cuff].append((p, i))
    return ends


def test_criterion_4_horoball_independence(pd):
    """Rescaling the horoball of a cuff by e^delta lengthens every leaf
    end at it by delta, so the volume integrand moves by delta times the
    rate of the sum of the angles of those ends.  The check reads the
    cause: on a path whose spiral-leaf angles really move, (a) they move
    by at least 0.1, (b) their sum over the ends at each cuff stays
    within 1e-10 of its start, and (c) the integrand of path_terms
    under one cuff's horoball rescaled by e^(+-1) stays within 1e-8 of
    the unit one, which is what the volume entry points integrate."""
    path = path_from_parameters(pd, lambda t: (2.0, 1.7 + 0.2j * t, 2.3),
                                lambda t: (0.3, 0.1, 0.2), steps=16)
    choice = "attracting"
    angles = angle_series(path, choice)
    moved = max(max(v) - min(v) for k, v in angles.items()
                if not isinstance(k, str))
    drift = 0.0
    for keys in _leaf_ends(pd).values():
        sums = np.sum([angles[k] for k in keys], axis=0)
        drift = max(drift, float(np.max(np.abs(sums - sums[0]))))

    images = sample_images(path.generators, path.matrices, pd)
    ts = np.array(path.ts)

    def integrand(conv):
        table, thetas, lengths, _ = path_terms(images, [choice], conv)
        return _integrand(table, _velocities(ts, thetas, lengths)[0])[0]

    unit = TruncationConvention.uniform(pd)
    base = integrand(unit)
    shift = max(float(np.max(np.abs(integrand(unit.rescaled(c.id, f))
                                    - base)))
                for c in pd.cuffs for f in (math.e, 1 / math.e))
    # the entry points read the unit integrand
    k = len(ts) // 2
    assert schlafli_derivative(path, ts[k], choice) == pytest.approx(
        base[k], abs=1e-12)
    ok = moved >= 0.1 and drift < 1e-10 and shift < 1e-8
    report(f"criterion 4 {'PASS' if ok else 'FAIL'}: leaf angles moved "
           f"{moved:.3f}, their sums at each cuff drifted {drift:.3e}, "
           f"the integrand moved {shift:.3e} under e^(+-1) horoball "
           "changes")
    assert moved >= 0.1
    assert drift < 1e-10
    assert shift < 1e-8


# -- 5: shared-endpoint detection --------------------------------------------

def _random_unit_det_map(rng, scale=1.0):
    u = complex(rng.normal(0, scale), rng.normal(0, scale))
    b = complex(rng.normal(0, scale), rng.normal(0, scale))
    c = complex(rng.normal(0, scale), rng.normal(0, scale))
    a = cmath.exp(u)
    return MoebiusMap(a, b, c, (1 + b * c) / a)


def _perturbed(m, rng, delta):
    return MoebiusMap(m.a + delta * complex(rng.normal(), rng.normal()),
                      m.b + delta * complex(rng.normal(), rng.normal()),
                      m.c + delta * complex(rng.normal(), rng.normal()),
                      m.d + delta * complex(rng.normal(), rng.normal()))


def test_criterion_5_shared_endpoint_flags():
    rng = np.random.default_rng(20260822)
    disagreements = 0
    exact_worst = 0.0
    for i in range(1000):
        # moderate conjugators keep the instances well conditioned, so
        # the commutator trace of an exactly-shared pair stays at the
        # float floor instead of being amplified past it
        phi = _random_unit_det_map(rng, scale=0.5)
        u1 = cmath.exp(complex(rng.uniform(0.3, 0.8), rng.uniform(-1, 1)))
        u2 = cmath.exp(complex(rng.uniform(0.3, 0.8), rng.uniform(-1, 1)))
        T1 = MoebiusMap(u1, 0, 0, 1 / u1)
        T2 = MoebiusMap(u2, rng.normal() + 0.5, 0, 1 / u2)
        if i % 2 == 0:
            # genuinely shared fixed point, then tiny noise
            m1 = phi.inverse() @ T1 @ phi
            m2 = phi.inverse() @ T2 @ phi
            _, tr2 = shared_endpoint_check(m1, m2)
            exact_worst = max(exact_worst, abs(tr2 - 4))
            m1 = _perturbed(m1, rng, 1e-10)
            m2 = _perturbed(m2, rng, 1e-10)
        else:
            psi = _random_unit_det_map(rng)
            m1 = phi.inverse() @ T1 @ phi
            m2 = psi.inverse() @ T2 @ psi
        # the commutator's tr^2, thresholded at 1e-2 rather than at
        # EPS_CLASS, which the entries' noise of 1e-10 can move it past
        _, tr2 = shared_endpoint_check(m1, m2)
        flagged = abs(tr2 - 4) < 1e-2
        dist = min(chordal(p, q)
                   for p in fixed_points(m1) for q in fixed_points(m2))
        if flagged != (dist < 1e-6):
            disagreements += 1
    ok = disagreements == 0 and exact_worst < 1e-10
    report(f"criterion 5 {'PASS' if ok else 'FAIL'}: {disagreements} "
           f"disagreements in 1000 reps; exact shared instances "
           f"|tr2 - 4| <= {exact_worst:.3e}")
    assert disagreements == 0
    assert exact_worst < 1e-10


# -- 6: bending additivity over random arcs ----------------------------------

def test_criterion_6_arc_additivity(pd):
    lam = build_lamination(pd)
    rep = fenchel_nielsen_rep(pd, (2.0 + 0.3j, 1.7, 2.3 - 0.2j),
                              (0.3 + 0.4j, 0.1 - 0.2j, 0.2 + 0.1j))
    real = realize(rep, pd)
    rng = np.random.default_rng(6)
    cuff_ids = [c.id for c in pd.cuffs]
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 12))
        crossings = []
        for _ in range(n):
            if rng.random() < 0.5:
                crossings.append(LeafCrossing(
                    int(rng.integers(0, len(pd.pants))),
                    int(rng.integers(0, 3)),
                    int(rng.choice((-1, 1)))))
            else:
                crossings.append(CuffCrossing(
                    cuff_ids[int(rng.integers(0, len(cuff_ids)))],
                    int(rng.integers(-2, 3)),
                    int(rng.choice((-1, 1)))))
        arc = TransverseArc(tuple(crossings))
        whole = arc_bending(real, arc)
        cuts = sorted(set(int(c) for c in
                          rng.integers(1, n, size=int(rng.integers(1, 4)))))
        parts = []
        prev = 0
        for cut in cuts + [n]:
            if cut > prev:
                parts.append(TransverseArc(tuple(crossings[prev:cut])))
                prev = cut
        total = sum(arc_bending(real, p) for p in parts)
        worst = max(worst, abs(reduce_angle(total - whole)))
    ok = worst < 1e-10
    report(f"criterion 6 {'PASS' if ok else 'FAIL'}: 500 random arcs, "
           f"worst additivity defect {worst:.3e} mod 2 pi")
    assert worst < 1e-10


# -- 7: peripheral rank experiment -------------------------------------------

def test_criterion_7_rank_experiment():
    import importlib.resources
    data = importlib.resources.files("pleatbend.data")
    with importlib.resources.as_file(data / "genus2_handlebody.json") as p:
        _, inclusion = load_document(str(p))
    rng = np.random.default_rng(7)
    reps = [random_representation(rng) for _ in range(50)]
    ranks = []
    worst_gap = math.inf
    worst_margin = math.inf
    for rep in reps:
        rank, sv = jacobian_rank(rep, inclusion)
        ranks.append(rank)
        worst_gap = min(worst_gap, sv[2] / sv[3])
        worst_margin = min(worst_margin, sv[2] / sv[0])
    prints = [peripheral_fingerprint(rep, inclusion) for rep in reps]
    min_sep = min(prints[i].distance(prints[j])
                  for i in range(len(prints)) for j in range(i))
    ok = (all(r == 3 for r in ranks) and worst_gap >= 1e6
          and worst_margin > EPS_RANK and min_sep > 1e-3)
    report(f"criterion 7 {'PASS' if ok else 'FAIL'}: rank 3 at "
           f"{sum(r == 3 for r in ranks)}/50 seeds, worst sv gap "
           f"{worst_gap:.3e}, worst margin sv[2]/sv[0] {worst_margin:.3e} "
           f"vs {EPS_RANK:g}, min fingerprint separation {min_sep:.3e}")
    assert all(r == 3 for r in ranks)
    assert worst_gap >= 1e6
    # sv[3] is roundoff, so the gap above cannot fail for a reason tied
    # to the rank; the margin over the rank threshold can
    assert worst_margin > EPS_RANK
    assert min_sep > 1e-3


# -- 8: conjugation invariance of fingerprints -------------------------------

def test_criterion_8_fingerprint_conjugation():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        rep = random_representation(rng)
        g = _random_unit_det_map(rng, scale=0.7)
        words = standard_word_list(rep.generators)
        d = fingerprint(rep, words).distance(
            fingerprint(rep.conjugated(g), words))
        worst = max(worst, d)
    ok = worst < 1e-10
    report(f"criterion 8 {'PASS' if ok else 'FAIL'}: 1000 conjugated "
           f"fingerprints, worst distance {worst:.3e}")
    assert worst < 1e-10


# -- 9: Lobachevsky function against quadrature ------------------------------

@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_9_lobachevsky():
    def by_quadrature(theta):
        if theta == 0.0:
            return 0.0
        lo, hi = min(0.0, theta), max(0.0, theta)
        pts = [k * math.pi for k in range(int(math.ceil(lo / math.pi)),
                                          int(math.floor(hi / math.pi)) + 1)
               if lo < k * math.pi < hi]
        val, _ = quad(lambda u: math.log(abs(2.0 * math.sin(u))), 0.0, theta,
                      points=pts or None, limit=400,
                      epsabs=1e-13, epsrel=1e-13)
        return -val

    worst = 0.0
    for theta in np.linspace(-4.0, 4.0, 1000):
        worst = max(worst, abs(lobachevsky(float(theta))
                               - by_quadrature(float(theta))))
    tetra_err = abs(3 * lobachevsky(math.pi / 3) - REGULAR_TETRA_VOLUME)
    tetra_err = max(tetra_err,
                    abs(3 * lobachevsky(math.pi / 3)
                        - ideal_tetra_volume(cmath.exp(1j * math.pi / 3))))
    ok = worst < 1e-10 and tetra_err < 1e-9
    report(f"criterion 9 {'PASS' if ok else 'FAIL'}: series vs quadrature "
           f"worst {worst:.3e} on 1000 points; regular tetrahedron "
           f"residual {tetra_err:.3e}")
    assert worst < 1e-10
    assert tetra_err < 1e-9
