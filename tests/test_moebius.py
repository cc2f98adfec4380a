import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pleatbend.errors import (DegenerateConfiguration, DegenerateLength,
                              IdentityMap, SingularMatrix)
from pleatbend.moebius import (EPS_CLASS, RESCALE_LIMIT, IsometryClass,
                               MoebiusArray, MoebiusMap, PointArray,
                               ProjectivePoint, chordal, classify,
                               complex_length, cross_ratio, fixed_points,
                               normalizing_map, reduce_angle,
                               reduce_angle_array, trace_squared)

from _seed_kernel import (SeedMoebiusMap, SeedProjectivePoint, build_both,
                          entries_of, raw_entries, run_both,
                          seed_distance_to, steep, steep_entries)

finite = st.complex_numbers(min_magnitude=0, max_magnitude=10,
                            allow_nan=False, allow_infinity=False)
small = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                           allow_nan=False, allow_infinity=False)


def maps(draw_entries=small):
    return st.tuples(draw_entries, draw_entries, draw_entries, draw_entries) \
        .filter(lambda e: abs(e[0] * e[3] - e[1] * e[2]) > 1e-3) \
        .map(lambda e: MoebiusMap(*e))


points = st.one_of(
    finite.map(ProjectivePoint.from_complex),
    st.just(ProjectivePoint.infinity()))


class TestProjectivePoint:
    def test_scaling_equality(self):
        p = ProjectivePoint(1 + 2j, 3 - 1j)
        q = ProjectivePoint((1 + 2j) * (0.5 - 4j), (3 - 1j) * (0.5 - 4j))
        assert p.approx_eq(q)
        assert chordal(p, q) < 1e-12

    @given(points)
    def test_self_distance_zero(self, p):
        assert chordal(p, p) == pytest.approx(0, abs=1e-12)

    @given(points, points)
    def test_chordal_bounded_by_two(self, p, q):
        assert chordal(p, q) <= 2 + 1e-12

    def test_infinity_round_trip(self):
        inf = ProjectivePoint.infinity()
        assert inf.is_infinity()
        assert ProjectivePoint.from_complex(4 - 1j).to_complex() == 4 - 1j

    @given(points, points, points)
    def test_equality_is_an_equivalence(self, p, q, r):
        if p.approx_eq(q) and q.approx_eq(r):
            assert chordal(p, r) < 1e-6


class TestMoebiusMap:
    def test_determinant_normalized(self):
        m = MoebiusMap(2, 0, 0, 2)
        (a, b), (c, d) = m.rows()
        assert a * d - b * c == pytest.approx(1)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            MoebiusMap(1, 2, 2, 4)

    def test_sign_quotient(self):
        m = MoebiusMap(2, 1, 1, 1)
        n = MoebiusMap(-2, -1, -1, -1)
        assert m.distance_to(n) < 1e-12

    @given(maps(), maps())
    def test_composition_acts_correctly(self, m, n):
        p = ProjectivePoint.from_complex(0.5 + 0.25j)
        lhs = (m @ n).apply(p)
        rhs = m.apply(n.apply(p))
        assert chordal(lhs, rhs) < 1e-6

    @given(maps())
    def test_inverse(self, m):
        assert (m @ m.inverse()).is_identity()

    def test_normalization_idempotent(self):
        m = MoebiusMap(3, 1, 2, 1)
        again = MoebiusMap(*(m.rows()[0] + m.rows()[1]))
        assert m.distance_to(again) < 1e-14

    def test_apply_interior_preserves_height_model(self):
        # vertical translation along the 0-inf axis scales heights
        m = MoebiusMap.diagonal(2)      # z -> 4z
        z, t = m.apply_interior(0j, 1.0)
        assert z == pytest.approx(0)
        assert t == pytest.approx(4)


class TestClassify:
    def test_frozen_loxodromic_example(self):
        m = MoebiusMap(2, 0, 0, 0.5)
        assert classify(m) == IsometryClass.LOXODROMIC
        assert trace_squared(m) == pytest.approx(6.25)
        assert complex_length(m) == pytest.approx(2 * math.log(2))
        att, rep = fixed_points(m)
        assert att.is_infinity()
        assert rep.to_complex() == pytest.approx(0)

    def test_frozen_parabolic_example(self):
        m = MoebiusMap(1, 1, 0, 1)
        assert classify(m) == IsometryClass.PARABOLIC
        p, other = fixed_points(m)
        assert p.is_infinity()
        assert other is None

    def test_frozen_elliptic_example(self):
        m = MoebiusMap(cmath.exp(1j * math.pi / 8), 0, 0,
                       cmath.exp(-1j * math.pi / 8))
        assert classify(m) == IsometryClass.ELLIPTIC
        lam = complex_length(m)
        assert lam.real == pytest.approx(0, abs=1e-12)
        assert abs(lam.imag) == pytest.approx(math.pi / 4)

    def test_identity(self):
        assert classify(MoebiusMap.identity()) == IsometryClass.IDENTITY
        with pytest.raises(DegenerateLength):
            complex_length(MoebiusMap.identity())
        with pytest.raises(IdentityMap):
            fixed_points(MoebiusMap.identity())

    def test_non_finite_trace_has_no_type(self):
        m = MoebiusMap(math.nan, 0, 0, 1)
        with pytest.raises(SingularMatrix, match="not finite"):
            classify(m)
        with pytest.raises(SingularMatrix):
            fixed_points(m)

    def test_near_parabolic_tolerance_window(self):
        # eigenvalue 1 + delta: tr^2 - 4 is about 4 delta^2, inside the
        # parabolic window of EPS_CLASS at delta = 1e-5 (4e-10) and
        # outside it at delta = 1e-4 (4e-8)
        assert EPS_CLASS == 1e-9
        for delta, kind in ((1e-5, IsometryClass.PARABOLIC),
                            (1e-4, IsometryClass.LOXODROMIC)):
            m = MoebiusMap(1 + delta, 1, 0, 1 / (1 + delta))
            assert abs(trace_squared(m) - 4) == pytest.approx(
                4 * delta ** 2, rel=1e-3)
            assert classify(m) == kind

    @pytest.mark.parametrize("eps_class", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("call", [classify, fixed_points, complex_length])
    def test_tolerance_not_finite_and_positive_rejected(self, call,
                                                        eps_class):
        # every check classifies at EPS_CLASS: no tolerance can be
        # handed in, not even one at which no "within tolerance" test
        # could pass
        with pytest.raises(TypeError, match="'eps_class'"):
            call(MoebiusMap.identity(), eps_class=eps_class)

    @given(maps(), maps())
    @settings(max_examples=60)
    def test_conjugation_invariant(self, m, g):
        assume(abs(trace_squared(m) - 4) > 1e-3)
        assert classify(m) == classify(m.conjugate_by(g))

    @given(maps())
    @settings(max_examples=80)
    def test_fixed_points_are_fixed(self, m):
        assume(classify(m) in (IsometryClass.LOXODROMIC, IsometryClass.ELLIPTIC))
        pts = fixed_points(m)
        gap = chordal(pts[0], pts[1])
        assume(gap > 1e-3)
        for p in pts:
            assert chordal(m.apply(p), p) < 1e-6

    @given(maps())
    @settings(max_examples=60)
    def test_inverse_swaps_fixed_points(self, m):
        assume(classify(m) == IsometryClass.LOXODROMIC)
        att, rep = fixed_points(m)
        assume(chordal(att, rep) > 1e-3)
        att_inv, rep_inv = fixed_points(m.inverse())
        assert chordal(att, rep_inv) < 1e-6
        assert chordal(rep, att_inv) < 1e-6

    def test_attracting_first(self):
        m = MoebiusMap(2, 0, 0, 0.5)     # attracts to infinity
        att, _ = fixed_points(m)
        p = ProjectivePoint.from_complex(1 + 1j)
        for _ in range(30):
            p = m.apply(p)
        assert chordal(p, att) < 1e-6


class TestComplexLength:
    @given(maps())
    @settings(max_examples=60)
    def test_normal_form(self, m):
        assume(classify(m) in (IsometryClass.LOXODROMIC, IsometryClass.ELLIPTIC))
        lam = complex_length(m)
        assert lam.real >= -1e-14
        assert -math.pi < lam.imag <= math.pi + 1e-12

    @given(maps())
    @example(MoebiusMap(0, 0.5, 0.015625, 2j))
    @example(MoebiusMap(1j, 1j, 3j, 2.875j))
    @settings(max_examples=40)
    def test_power_scaling(self, m):
        assume(classify(m) == IsometryClass.LOXODROMIC)
        lam = complex_length(m)
        assume(lam.real > 0.05)
        power = m
        for n in range(2, 6):
            power = power @ m
            expected = n * lam
            got = complex_length(power)
            diff = got - expected
            # agreement modulo 2 pi i
            assert diff.real == pytest.approx(0, abs=1e-8)
            assert math.remainder(diff.imag, 2 * math.pi) == pytest.approx(0, abs=1e-6)

    def test_trace_length_relation(self):
        lam = 1.4 + 0.7j
        m = MoebiusMap.diagonal(cmath.exp(lam / 2))
        assert complex_length(m) == pytest.approx(lam)

    def test_elliptic_sign_is_conjugation_invariant(self):
        # an elliptic map's lambda is taken at the real part of tr / 2,
        # so the rounding-level Im tr of a conjugate cannot pick its
        # sign; for either lift, e^lambda = mu^2 for the eigenvalue mu
        # of the first point that fixed_points returns
        m = MoebiusMap.diagonal(cmath.exp(0.7j))
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = MoebiusMap(*(complex(*rng.normal(size=2)) for _ in range(4)))
            c = m.conjugate_by(g)
            assert complex_length(c) == pytest.approx(1.4j, abs=1e-9)
            for lift in (c, MoebiusMap(-c.a, -c.b, -c.c, -c.d)):
                p, _ = fixed_points(lift)
                mu = ((lift.a * p.z1 + lift.b * p.z2) / p.z1
                      if abs(p.z1) > abs(p.z2)
                      else (lift.c * p.z1 + lift.d * p.z2) / p.z2)
                assert cmath.exp(complex_length(lift)) == pytest.approx(
                    mu * mu, abs=1e-9)


class TestCrossRatio:
    def test_normalization_triple(self):
        z = 2.5 - 1.25j
        got = cross_ratio(ProjectivePoint.from_complex(0),
                          ProjectivePoint.infinity(),
                          ProjectivePoint.from_complex(1),
                          ProjectivePoint.from_complex(z))
        assert got == pytest.approx(z)

    @given(finite, finite, finite, finite)
    @settings(max_examples=60)
    def test_moebius_invariance(self, p1, p2, p3, p4):
        pts = [p1, p2, p3, p4]
        assume(min(abs(a - b) for i, a in enumerate(pts)
                   for b in pts[i + 1:]) > 1e-2)
        m = MoebiusMap(1 + 1j, 0.5, -0.25, 1 - 0.5j)
        pp = [ProjectivePoint.from_complex(z) for z in pts]
        before = cross_ratio(*pp)
        after = cross_ratio(*(m.apply(p) for p in pp))
        assert after == pytest.approx(before, rel=1e-6)

    @given(finite, finite, finite, finite)
    @settings(max_examples=60)
    def test_first_pair_swap_inverts(self, p1, p2, p3, p4):
        pts = [p1, p2, p3, p4]
        assume(min(abs(a - b) for i, a in enumerate(pts)
                   for b in pts[i + 1:]) > 1e-2)
        pp = [ProjectivePoint.from_complex(z) for z in pts]
        plain = cross_ratio(pp[0], pp[1], pp[2], pp[3])
        swapped = cross_ratio(pp[1], pp[0], pp[2], pp[3])
        assume(abs(plain) > 1e-6)
        assert swapped == pytest.approx(1 / plain, rel=1e-6)

    def test_degenerate_rejected(self):
        p = ProjectivePoint.from_complex(1)
        q = ProjectivePoint.from_complex(2)
        r = ProjectivePoint.from_complex(3)
        with pytest.raises(DegenerateConfiguration):
            cross_ratio(p, p, q, r)


class TestReduceAngle:
    @given(st.floats(-50, 50))
    def test_range(self, x):
        r = reduce_angle(x)
        assert -math.pi < r <= math.pi

    @given(st.floats(-50, 50))
    def test_congruent(self, x):
        r = reduce_angle(x)
        assert math.remainder(x - r, 2 * math.pi) == pytest.approx(0, abs=1e-9)

    def test_boundary(self):
        assert reduce_angle(math.pi) == pytest.approx(math.pi)
        assert reduce_angle(-math.pi) == pytest.approx(math.pi)

    @given(st.lists(st.one_of(st.floats(allow_infinity=False),
                              st.integers(-10 ** 6, 10 ** 6).map(
                                  lambda k: k * 2 * math.pi),
                              st.floats(-20.0, 20.0)),
                    min_size=1, max_size=20))
    @example([math.pi, -math.pi, 0.0, -0.0, 2 * math.pi, -2 * math.pi,
              3 * math.pi, -3 * math.pi, 1e300, -1e300, math.nan,
              math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
              math.nextafter(math.pi, 4.0), 5e-324])
    def test_array_is_scalar(self, xs):
        # bit for bit, so -0.0 must stay -0.0 and NaN stay NaN
        got = reduce_angle_array(np.array(xs))
        want = np.array([reduce_angle(x) for x in xs])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNormalizingMap:
    @given(points, points)
    @settings(max_examples=60)
    def test_sends_endpoints(self, p, q):
        assume(chordal(p, q) > 1e-3)
        m = normalizing_map(p, q)
        assert chordal(m.apply(p), ProjectivePoint.from_complex(0)) < 1e-8
        assert chordal(m.apply(q), ProjectivePoint.infinity()) < 1e-8

    @staticmethod
    def assert_array_is_map(pairs):
        # bit for bit, entry by entry, as the docstring of
        # MoebiusArray.normalizing promises
        to_zero, to_infinity = (PointArray.of(ps) for ps in zip(*pairs))
        frame, coincide = MoebiusArray.normalizing(to_zero, to_infinity)
        assert not coincide.any()
        got = np.stack([frame.re, frame.im], axis=-1).reshape(4, -1, 2)
        want = np.array([[(z.real, z.imag) for z in (m.a, m.b, m.c, m.d)]
                         for m in (normalizing_map(p, q) for p, q in pairs)])
        assert np.array_equal(got.transpose(1, 0, 2).view(np.int64),
                              want.view(np.int64))

    def test_array_is_map_on_the_imaginary_axis(self):
        # the determinant is purely imaginary here, where np.sqrt and
        # cmath.sqrt round differently on about half of the values
        ys = np.geomspace(1e-3, 1e3, 1000)
        self.assert_array_is_map(
            [(ProjectivePoint.from_complex(0), ProjectivePoint.from_complex(
                complex(0.0, y))) for y in np.concatenate([ys, -ys]).tolist()])

    @given(st.lists(st.tuples(points, points), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_array_is_map(self, pairs):
        assume(all(chordal(p, q) > 1e-3 for p, q in pairs))
        self.assert_array_is_map(pairs)


# ---------------------------------------------------------------------------
# bit-identity oracle for the slotted kernel (reference in _seed_kernel)


class TestKernelOracle:
    @given(raw_entries)
    @settings(max_examples=300)
    def test_construction(self, args):
        build_both(args)

    @given(st.one_of(raw_entries, steep_entries), st.floats(-5, 5),
           st.floats(-5, 5))
    @settings(max_examples=200)
    def test_apply_and_points(self, args, x, y):
        pair = build_both(args)
        assume(pair is not None)
        got, want = pair
        p, q = ProjectivePoint(x, y + 1j), SeedProjectivePoint(x, y + 1j)
        assert (p.z1, p.z2) == (q.z1, q.z2)
        gp, wq = got.apply(p), want.apply(q)
        assert (gp.z1, gp.z2) == (wq.z1, wq.z2)

    @given(st.lists(st.tuples(st.one_of(raw_entries, steep_entries),
                              st.booleans()),
                    min_size=1, max_size=5))
    @settings(max_examples=300)
    @example(factors=[((0, 1e-10, 0.5j, 2j), True),
                      (steep(800.0, 0.0), False), (steep(800.0, 0.0), True)])
    def test_products_and_inverses(self, factors):
        # a step at which both kernels raise SingularMatrix ends the draw
        got, want = MoebiusMap.identity(), SeedMoebiusMap.identity()
        for args, invert in factors:
            pair = build_both(args)
            assume(pair is not None)
            m, n = pair
            if invert:
                pair = run_both(m.inverse, n.inverse)
                if pair is None:
                    return
                m, n = pair
            pair = run_both(lambda: got @ m, lambda: want @ n)
            if pair is None:
                return
            got, want = pair

    @given(steep_entries, steep_entries)
    def test_rescale_limit_branch_is_drawn(self, e1, e2):
        m, n = MoebiusMap(*e1), SeedMoebiusMap(*e1)
        assert abs(m.a * m.d) + abs(m.b * m.c) > RESCALE_LIMIT
        assert entries_of(m.inverse()) == entries_of(n.inverse())
        other = MoebiusMap(*e2)
        assert entries_of(m @ other) == entries_of(n @ SeedMoebiusMap(*e2))


def _wide(mag: float):
    part = st.floats(-mag, mag, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


# entries up to 1e160, past 1.3e154, where abs(x - y) ** 2 raises
# OverflowError and the product is inf
wide_entries = st.tuples(*[st.one_of(_wide(3.0), _wide(1e160))] * 4)


class TestDistanceOracle:
    """distance_to sums the four entry pairs unrolled, the seed in a
    loop; the distances are equal bit for bit."""

    @given(wide_entries, wide_entries, st.sampled_from([1.0, -1.0]),
           st.floats(0.0, 1e-3))
    @settings(max_examples=500)
    @example(e=(1e160, 0j, 0j, 1e-160), f=(1.0, 0j, 0j, 1.0), sign=-1.0,
             nudge=0.0)
    @example(e=(1.5, 0.5j, 2.0, 1 + 1j), f=(1.5, 0.5j, 2.0, 1 + 1j),
             sign=-1.0, nudge=1e-9)
    def test_unrolled_sum(self, e, f, sign, nudge):
        # other is -m plus a nudge when sign is -1, so the sum over
        # x + y is the smaller, and the unrelated f otherwise
        m = MoebiusMap._raw(*e)
        near = MoebiusMap._raw(*(sign * x + nudge for x in e))
        for other in (near, MoebiusMap._raw(*f), MoebiusMap.identity()):
            assert m.distance_to(other) == seed_distance_to(m, other)
            assert other.distance_to(m) == seed_distance_to(other, m)

    def test_overflowing_entries(self):
        # the squares overflow to inf; ** 2 would raise instead
        m = MoebiusMap._raw(1e160, 0j, 0j, 1e-160)
        with pytest.raises(OverflowError):
            abs(m.a) ** 2
        assert m.distance_to(MoebiusMap.identity()) == math.inf
        assert seed_distance_to(m, MoebiusMap.identity()) == math.inf


class TestTracerHook:
    """Instrumentation counts constructions by wrapping
    MoebiusMap.__post_init__ on the class."""

    @pytest.fixture
    def counter(self, monkeypatch):
        calls = []
        original = MoebiusMap.__post_init__

        def counting(obj):
            calls.append(obj)
            original(obj)

        monkeypatch.setattr(MoebiusMap, "__post_init__", counting)
        return calls

    def test_one_call_per_normalizing_construction(self, counter):
        m = MoebiusMap(2, 1, 1, 1)
        n = MoebiusMap.diagonal(1.5)
        assert len(counter) == 2
        product = m @ n
        inverse = m.inverse()
        assert len(counter) == 4
        assert counter == [m, n, product, inverse]
        assert MoebiusMap.identity() is MoebiusMap.identity()
        assert m.is_identity() is False
        assert len(counter) == 4

    def test_rescale_limit_branch_is_not_counted(self, counter):
        m = MoebiusMap(*steep(1e3, 0.3))
        assert len(counter) == 1
        assert abs(m.a * m.d) + abs(m.b * m.c) > RESCALE_LIMIT
        m @ m
        m.inverse()
        assert len(counter) == 1

    def test_no_instance_dict(self):
        m = MoebiusMap(2, 1, 1, 1)
        p = ProjectivePoint(1, 2)
        for obj in (m, p, MoebiusMap.identity(), m @ m, m.inverse(),
                    m.apply(p)):
            assert not hasattr(obj, "__dict__")

    def test_identity_equality(self):
        m = MoebiusMap(2, 1, 1, 1)
        same = MoebiusMap(2, 1, 1, 1)
        assert entries_of(m) == entries_of(same)
        assert m != same and m == m
        assert len({m, same}) == 2
