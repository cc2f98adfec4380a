"""Tests for realizations, bending angles, truncation, and adaptedness."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pleatbend import (
    CuffCrossing,
    DegenerateConfiguration,
    InvalidDecomposition,
    IsometryClass,
    LeafCrossing,
    MoebiusMap,
    NotAdapted,
    OrientationTrackingFailure,
    PleatbendError,
    ProjectivePoint,
    Representation,
    SingularMatrix,
    TransverseArc,
    TruncationConvention,
    arc_bending,
    bending_data,
    build_lamination,
    check_adapted,
    chordal,
    cuff_bending,
    fenchel_nielsen_rep,
    integrate_volume_change,
    leaf_bending,
    normalizing_map,
    path_from_reps,
    realize,
    reduce_angle,
    resolve_endpoints,
    shared_endpoint_check,
    standard_decomposition,
    subdivide_arc,
    track_endpoints,
    truncated_geodesic_length,
    truncated_length,
)
from pleatbend import pleated
from pleatbend.moebius import KINDS, MoebiusArray
from pleatbend.pleated import sample_images
from pleatbend.representation import _matrices_of

from _mp_oracle import angle_error, mp_cuff_angles
from test_volume import genus3_path, wrap_stage

LENGTHS = (2.0, 1.7, 2.3)
TWISTS = (0.3, 0.1, 0.2)


@pytest.fixture(scope="module")
def setup():
    pd = standard_decomposition(2)
    lam = build_lamination(pd)
    return pd, lam


def fuchsian(pd):
    return fenchel_nielsen_rep(pd, LENGTHS, TWISTS)


def with_images(rep, **images):
    """rep with the images of some generators replaced."""
    return Representation(generators=rep.generators,
                          images=tuple(images.get(g, m) for g, m in
                                       zip(rep.generators, rep.images)))


def sharing_slots(pd):
    """a1 = diag(2, 1/2) and b1 taking 0 to infinity: a1 and b1 A1 B1
    share the fixed point infinity, with the same multiplier there, so
    their product w1 stays loxodromic and so does every cuff."""
    return with_images(fuchsian(pd), a1=MoebiusMap(2.0, 0, 0, 0.5),
                       b1=MoebiusMap(1, 1, -1, 0))


# a planted failure of one sample: (representation, start)
ONE_SAMPLE_FAILURES = {
    # the label fails before the identity cuff a1 does
    "unknown-label": lambda pd: (
        with_images(fuchsian(pd), a1=MoebiusMap.identity()), "bogus"),
    "foreign-start": lambda pd: (
        fuchsian(pd).conjugated(MoebiusMap(1, 0.5, 0, 1)),
        resolve_endpoints(fuchsian(pd), pd, "attracting")),
    "missing-cuff": lambda pd: (
        fuchsian(pd), {c: z for c, z in resolve_endpoints(
            fuchsian(pd), pd, "attracting").items() if c != "a1"}),
    "flagged-pair": lambda pd: (sharing_slots(pd), "attracting"),
    "identity-and-flagged-pair": lambda pd: (
        with_images(sharing_slots(pd), a2=MoebiusMap.identity()),
        "attracting"),
}


class TestAdaptedness:
    def test_fuchsian_rep_is_adapted(self, setup):
        pd, _ = setup
        report = check_adapted(fuchsian(pd), pd)
        assert report.adapted
        assert report.bad_cuffs == ()
        assert not report.flagged_pairs()
        assert "adapted" in report.summary()

    def test_trivial_cuff_rejected(self, setup):
        pd, _ = setup
        rep = Representation(generators=pd.generators,
                             images=tuple(MoebiusMap.identity()
                                          for _ in pd.generators))
        report = check_adapted(rep, pd)
        assert not report.adapted
        assert set(report.bad_cuffs) == {c.id for c in pd.cuffs}

    @pytest.mark.parametrize("entry", ["realize", "check_adapted"])
    def test_cuff_without_a_finite_trace_rejected(self, setup, entry):
        # a1 = diag(1e155, 1e-155): its tr^2 overflows to inf, while b1
        # the identity keeps every word image of the pass finite, so the
        # cuff's classification is what refuses it
        pd, _ = setup
        rep = with_images(fuchsian(pd), a1=MoebiusMap(1e155, 0, 0, 1e-155),
                          b1=MoebiusMap.identity())
        with pytest.raises(SingularMatrix) as got:
            {"realize": realize, "check_adapted": check_adapted}[entry](
                rep, pd)
        assert str(got.value) == "squared trace (inf+0j) is not finite"

    def test_shared_endpoint_detected(self):
        # both upper triangular: common fixed point at infinity
        a = MoebiusMap(2, 0, 0, 0.5)
        b = MoebiusMap(1, 1, 0, 1)
        flagged, tr2 = shared_endpoint_check(a, b)
        assert flagged
        assert abs(tr2 - 4) < 1e-12

    def test_disjoint_endpoints_pass(self):
        a = MoebiusMap(2, 0, 0, 0.5)          # fixes 0 and infinity
        b = MoebiusMap(1, 1, 1, 2)            # fixes (-1 +- sqrt 5)/2
        flagged, tr2 = shared_endpoint_check(a, b)
        assert not flagged
        assert abs(tr2 - 4) > 0.1

    @pytest.mark.parametrize("eps_class", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_not_finite_and_positive_rejected(self, eps_class):
        # the test flags |tr^2 - 4| below EPS_CLASS: no tolerance can be
        # handed in, not even one at which no pair could be flagged
        a = MoebiusMap(2, 0, 0, 0.5)
        with pytest.raises(TypeError, match="'eps_class'"):
            shared_endpoint_check(a, a, eps_class=eps_class)


class TestRealize:
    def test_fuchsian_realization_is_flat(self, setup):
        pd, lam = setup
        bd = bending_data(realize(fuchsian(pd), pd))
        worst = max(abs(v) for v in list(bd.leaf_angles.values())
                    + list(bd.cuff_angles.values()))
        assert worst < 1e-12

    def test_pure_bend_reads_back_exactly(self, setup):
        pd, lam = setup
        theta = 0.4
        rep = fenchel_nielsen_rep(
            pd, LENGTHS, (TWISTS[0] + theta * 1j,) + TWISTS[1:])
        bd = bending_data(realize(rep, pd))
        assert bd.cuff_angles["a1"] == pytest.approx(theta, abs=1e-12)
        assert abs(bd.cuff_angles["a2"]) < 1e-12
        assert abs(bd.cuff_angles["w1"]) < 1e-12
        assert max(abs(v) for v in bd.leaf_angles.values()) < 1e-12

    def test_repelling_endpoints_negate_cuff_angles(self, setup):
        pd, lam = setup
        rep = fenchel_nielsen_rep(
            pd, LENGTHS, (TWISTS[0] + 0.4j,) + TWISTS[1:])
        att = realize(rep, pd)
        repl = realize(rep, pd, "repelling")
        for cuff in pd.cuffs:
            assert cuff_bending(repl, cuff.id) == pytest.approx(
                -cuff_bending(att, cuff.id), abs=1e-12)

    def test_winding_shifts_by_imaginary_length(self, setup):
        pd, lam = setup
        rep = fenchel_nielsen_rep(pd, (2.0 + 0.4j,) + LENGTHS[1:],
                                  (0.3 + 0.2j,) + TWISTS[1:])
        real = realize(rep, pd)
        base = cuff_bending(real, "a1")
        assert cuff_bending(real, "a1", winding=1) == pytest.approx(
            reduce_angle(base + 0.4), abs=1e-12)
        assert cuff_bending(real, "a1", winding=-1) == pytest.approx(
            reduce_angle(base - 0.4), abs=1e-12)

    def test_conjugation_invariance_of_bending_data(self, setup):
        pd, lam = setup
        rep = fenchel_nielsen_rep(pd, (2.0 + 0.1j, 1.7, 2.3),
                                  (0.3 + 0.2j, 0.1 - 0.1j, 0.2))
        g = MoebiusMap(1.2, 0.3 - 0.1j, 0.2j, 0.8)
        bd = bending_data(realize(rep, pd))
        bd_c = bending_data(realize(rep.conjugated(g), pd))
        for key in bd.leaf_angles:
            assert bd_c.leaf_angles[key] == pytest.approx(
                bd.leaf_angles[key], abs=1e-9)
        for cid in bd.cuff_angles:
            assert bd_c.cuff_angles[cid] == pytest.approx(
                bd.cuff_angles[cid], abs=1e-9)
            assert bd_c.cuff_lengths[cid] == pytest.approx(
                bd.cuff_lengths[cid], abs=1e-9)
        # truncated leaf lengths are convention dependent (the cuff frame
        # is only defined up to scale), but conjugation shifts every end
        # at a cuff by the same amount, so differences across leaves with
        # matching end counts are preserved
        shift = {}
        for (p, i), v in bd.leaf_lengths.items():
            ends = (pd.pants[p].cuff_ends[i].cuff,
                    pd.pants[p].cuff_ends[(i + 1) % 3].cuff)
            key = tuple(sorted(ends))
            shift.setdefault(key, []).append(bd_c.leaf_lengths[(p, i)] - v)
        for deltas in shift.values():
            assert max(deltas) - min(deltas) < 1e-8

    def test_not_adapted_raises(self, setup):
        pd, lam = setup
        rep = Representation(generators=pd.generators,
                             images=tuple(MoebiusMap.identity()
                                          for _ in pd.generators))
        with pytest.raises(NotAdapted):
            realize(rep, pd)

    @pytest.mark.parametrize("case", sorted(ONE_SAMPLE_FAILURES))
    def test_fails_as_a_path_of_its_sample(self, setup, case):
        # realize sets the sample up as a path's first sample: the
        # label and the selection come before the adaptedness check
        pd, _ = setup
        rep, start = ONE_SAMPLE_FAILURES[case](pd)
        with pytest.raises(PleatbendError) as got:
            realize(rep, pd, start)
        with pytest.raises(PleatbendError) as want:
            integrate_volume_change(path_from_reps([rep] * 3, pd=pd), start)
        assert (type(got.value), str(got.value)) == \
            (type(want.value), str(want.value))

    @pytest.mark.parametrize("key", [(0, 5), (0, 3), (9, 0), (2, 0),
                                     (-2, 1), (0, -1)],
                             ids=["leaf-5", "leaf-3", "pants-9", "pants-2",
                                  "pants-minus-2", "leaf-minus-1"])
    def test_leaf_keys_out_of_range(self, setup, key):
        pd, _ = setup
        real = realize(fuchsian(pd), pd)
        conv = TruncationConvention.uniform(pd)
        for term in (lambda: leaf_bending(real, key),
                     lambda: truncated_length(real, key, conv)):
            with pytest.raises(InvalidDecomposition,
                               match=f"no spiral leaf {re.escape(str(key))}"):
                term()

    def test_foreign_start_dict_is_tracked(self, setup):
        # a selection resolved at a nearby representation is tracked to
        # this one's fixed points, as every path entry point tracks it,
        # not used as given
        pd, lam = setup
        z0 = resolve_endpoints(fuchsian(pd), pd, "attracting")
        rep = fenchel_nielsen_rep(pd, (2.05, 1.75, 2.35), TWISTS)
        got = realize(rep, pd, z0)
        want = realize(rep, pd, track_endpoints(rep, pd, z0))

        def coords(points):
            return [repr((p.z1, p.z2)) for p in points]
        assert {c: coords(v) for c, v in got.zeta.items()} == \
            {c: coords(v) for c, v in want.zeta.items()}
        assert [coords(row) for row in got.xi] == \
            [coords(row) for row in want.xi]
        assert repr(bending_data(got)) == repr(bending_data(want))

    def test_arc_bending_runs_each_angle_stage_once(self, setup,
                                                    monkeypatch):
        pd, lam = setup
        rep = fenchel_nielsen_rep(pd, (2.0 + 0.3j, 1.7, 2.3 - 0.2j),
                                  (0.3 + 0.4j, 0.1, 0.2 + 0.1j))
        real = realize(rep, pd)
        calls = []

        def counting(name, stage):
            def wrapper(geometry, *args):
                calls.append(name)
                return stage(geometry, *args)
            return wrapper

        for name in ("leaf_angles", "cuff_angles"):
            wrap_stage(monkeypatch, pleated._Geometry, name,
                       functools.partial(counting, name))
        arc = TransverseArc(
            tuple(LeafCrossing(p, i, 1) for p in range(len(pd.pants))
                  for i in range(3))
            + tuple(CuffCrossing(c.id, 0, 1) for c in pd.cuffs))
        total = arc_bending(real, arc)
        assert sorted(calls) == ["cuff_angles", "leaf_angles"]
        # bending_data reads the same stages
        bd = bending_data(real)
        assert sorted(calls) == ["cuff_angles", "leaf_angles"]
        assert total == reduce_angle(sum(
            bd.leaf_angles[(x.pants, x.leaf)] if isinstance(x, LeafCrossing)
            else bd.cuff_angles[x.cuff] for x in arc.crossings))

    def test_plaque_shapes(self, setup):
        pd, lam = setup
        real = realize(fuchsian(pd), pd)
        assert len(real.xi) == len(pd.pants)
        assert all(len(row) == 3 for row in real.xi)
        spiral = [leaf.key for leaf in lam.leaves
                  if not isinstance(leaf.key, str)]
        assert spiral == [(p, i) for p in range(len(real.xi))
                          for i in range(3)]


WINDINGS = (1, -1, 2, -2)


def random_reps(count, seed=11, genus=2):
    """count representations of the given genus with complex cuff
    lengths 1.5 to 2.5 plus up to 0.5i and twist-bends of parts up to
    0.5, drawn from seed."""
    pd = standard_decomposition(genus)
    rng = np.random.default_rng(seed)

    def draw(low, high):
        return [complex(rng.uniform(low, high), rng.uniform(-0.5, 0.5))
                for _ in pd.cuffs]
    return pd, [fenchel_nielsen_rep(pd, draw(1.5, 2.5), draw(-0.5, 0.5))
                for _ in range(count)]


def winding_errors(rep, pd, start):
    """The errors of one realization's cuff terms against the 50-digit
    oracle: {(cuff id, winding): error of cuff_bending} at windings 0
    and WINDINGS, and {cuff id: error of Im lambda}."""
    real = realize(rep, pd, start)
    want, rotations = mp_cuff_angles(rep, pd, real.zeta, (0,) + WINDINGS)
    return ({key: angle_error(cuff_bending(real, *key), w)
             for key, w in want.items()},
            {c: angle_error(real.cuff_lengths[c].imag, r)
             for c, r in rotations.items()})


class TestWindings:
    """cuff_bending at a winding k is the winding-0 angle plus k times
    the cuff's rotation at the chosen endpoint, held against the oracle,
    which evaluates the crossing word that turns k times around the
    cuff at 50 digits."""

    def test_genus2_within_1e_12_of_the_oracle(self):
        pd, reps = random_reps(10)
        cases = [(rep, start) for rep in reps
                 for start in ("attracting", "repelling")]
        # a start dict that chooses attracting points on a1 and w1 and
        # the repelling one on a2, tracked from a nearby representation
        near = fenchel_nielsen_rep(pd, (2.02, 1.7, 2.3), TWISTS)
        a, r = (resolve_endpoints(near, pd, label)
                for label in ("attracting", "repelling"))
        cases.append((fuchsian(pd), {"a1": a["a1"], "a2": r["a2"],
                                     "w1": a["w1"]}))
        elliptic = fenchel_nielsen_rep(pd, (1.1j, 1.7, 2.3),
                                       (0.3 + 0.2j, 0.1, 0.2))
        assert check_adapted(elliptic, pd).cuff_kinds["a1"] == "elliptic"
        cases += [(elliptic, "attracting"), (elliptic, "repelling")]
        worst = max(max(winding_errors(rep, pd, start)[0].values())
                    for rep, start in cases)
        assert worst < 1e-12

    def test_genus3_random_within_its_measured_error(self):
        # the genus-3 cuff words are long, and their float products cost
        # accuracy: over these draws Im lambda is off by up to 1.8e-8 and
        # the winding-0 angle by up to 3.9e-8 (1.8e-13 at genus 2).  The
        # bounds are twice those, so that a regression fails
        pd, reps = random_reps(9, genus=3)
        angle = turn = 0.0
        for rep in reps:
            for start in ("attracting", "repelling"):
                errors, turns = winding_errors(rep, pd, start)
                angle = max(angle, *(errors[c.id, 0] for c in pd.cuffs))
                turn = max(turn, *turns.values())
        assert angle < 8e-8
        assert turn < 4e-8

    def test_genus3_adds_no_error_to_its_inputs(self):
        # the genus-3 cuff words are long, and the float Im lambda is
        # off by up to 6e-11 here: k turns may add k times that to the
        # winding-0 angle's own error, and nothing more
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)
        for rep in path.reps:
            for start in ("attracting", "repelling"):
                errors, turn = winding_errors(rep, path.pd, start)
                for (c, k), error in errors.items():
                    assert error <= (errors[c, 0] + abs(k) * turn[c]
                                     + 1e-13), (c, k, start)

    def test_winding_evaluates_no_word(self, setup, monkeypatch):
        pd, lam = setup
        real = realize(fenchel_nielsen_rep(pd, (2.0 + 0.4j,) + LENGTHS[1:],
                                           TWISTS), pd)
        calls = []

        def counting(*args):
            calls.append(args)
            return word_images(*args)
        word_images = pleated._word_images
        monkeypatch.setattr(pleated, "_word_images", counting)
        cuff_bending(real, "a1", 2)
        assert calls == []
        # a winding counts turns, so one that is no integer is refused
        with pytest.raises(TypeError):
            cuff_bending(real, "a1", 1.5)

    def test_bend_computes_cuff_lengths_once(self, setup, monkeypatch):
        pd, lam = setup
        calls = []

        def counting(f):
            def wrapper(*args):
                calls.append(args)
                return f(*args)
            return wrapper
        wrap_stage(monkeypatch, MoebiusArray, "complex_length", counting)
        bending_data(realize(fuchsian(pd), pd))
        assert len(calls) == 1

    def test_elliptic_cuff_length_is_conjugation_invariant(self, setup):
        # the pass takes an elliptic cuff's Im lambda at the real part of
        # tr / 2, so a rounding-level Im tr, which moves with the
        # conjugation, cannot flip its sign
        pd, lam = setup
        rep = fenchel_nielsen_rep(pd, (1.1j, 1.7, 2.3),
                                  (0.3 + 0.2j, 0.1, 0.2))
        want = realize(rep, pd).cuff_lengths["a1"]
        assert want.real == 0.0 and abs(want.imag) == pytest.approx(1.1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = MoebiusMap(*(complex(*rng.normal(size=2)) for _ in range(4)))
            got = realize(rep.conjugated(g), pd).cuff_lengths["a1"]
            assert got == pytest.approx(want, abs=1e-9)


class TestEndpointTracking:
    def test_small_step_tracks(self, setup):
        pd, _ = setup
        rep0 = fuchsian(pd)
        zeta = resolve_endpoints(rep0, pd, "attracting")
        rep1 = fenchel_nielsen_rep(pd, LENGTHS,
                                   (TWISTS[0] + 0.01j,) + TWISTS[1:])
        moved = track_endpoints(rep1, pd, zeta)
        worst = max(chordal(zeta[c][0], moved[c][0]) for c in moved)
        assert worst < 1e-2

    def test_ambiguous_previous_point_fails(self, setup):
        pd, _ = setup
        rep = fuchsian(pd)
        zeta = resolve_endpoints(rep, pd, "attracting")
        cid = pd.cuffs[0].id
        p1, p2 = zeta[cid]
        frame = normalizing_map(p1, p2)
        equidistant = frame.inverse().apply(ProjectivePoint.from_complex(1.0))
        bad = dict(zeta)
        bad[cid] = (equidistant, p2)
        with pytest.raises(OrientationTrackingFailure):
            track_endpoints(rep, pd, bad)

    def test_pass_fixes_the_tolerance(self, setup):
        # every check that reads a sample reads the kinds its pass fixed
        # at EPS_CLASS: with a1 sent to the identity, the cuff a1 is the
        # identity
        pd, _ = setup
        zeta = resolve_endpoints(fuchsian(pd), pd, "attracting")
        rep = with_images(fuchsian(pd), a1=MoebiusMap.identity())
        images = sample_images(rep.generators, _matrices_of([rep]), pd)
        assert KINDS[images.kinds[pd.cuff_index("a1"), 0]] == \
            IsometryClass.IDENTITY
        with pytest.raises(NotAdapted, match="cuff 'a1' is identity"):
            resolve_endpoints(rep, pd, "attracting")
        with pytest.raises(NotAdapted, match="cuff 'a1' is identity"):
            track_endpoints(rep, pd, zeta)
        report = check_adapted(rep, pd)
        assert not report.adapted
        assert "a1" in report.bad_cuffs
        assert report.cuff_kinds["a1"] == IsometryClass.IDENTITY
        assert check_adapted(fuchsian(pd), pd).adapted


class TestArcBending:
    def arc(self, pd):
        return TransverseArc((
            LeafCrossing(0, 0, 1),
            CuffCrossing("a1", 0, 1),
            LeafCrossing(1, 2, -1),
            CuffCrossing("w1", 1, -1),
            LeafCrossing(0, 1, 1),
        ))

    def test_subdivision_preserves_total(self, setup):
        pd, lam = setup
        rep = fenchel_nielsen_rep(pd, (2.0 + 0.3j, 1.7, 2.3 - 0.2j),
                                  (0.3 + 0.4j, 0.1, 0.2 + 0.1j))
        real = realize(rep, pd)
        arc = self.arc(pd)
        whole = arc_bending(real, arc)
        parts = sum(arc_bending(real, piece) for piece in subdivide_arc(arc))
        assert abs(reduce_angle(parts - whole)) < 1e-10

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_random_arc_subdivision(self, data, setup):
        pd, lam = setup
        rep = fenchel_nielsen_rep(pd, (2.0 + 0.3j, 1.7, 2.3),
                                  (0.3 + 0.4j, 0.1 - 0.2j, 0.2))
        real = realize(rep, pd)
        n = data.draw(st.integers(1, 10))
        crossings = []
        for _ in range(n):
            if data.draw(st.booleans()):
                crossings.append(LeafCrossing(
                    data.draw(st.integers(0, len(pd.pants) - 1)),
                    data.draw(st.integers(0, 2)),
                    data.draw(st.sampled_from((-1, 1)))))
            else:
                crossings.append(CuffCrossing(
                    data.draw(st.sampled_from([c.id for c in pd.cuffs])),
                    data.draw(st.integers(-2, 2)),
                    data.draw(st.sampled_from((-1, 1)))))
        arc = TransverseArc(tuple(crossings))
        whole = arc_bending(real, arc)
        parts = sum(arc_bending(real, piece) for piece in subdivide_arc(arc))
        assert abs(reduce_angle(parts - whole)) < 1e-10


class TestTruncation:
    def test_unit_horoballs_touch(self):
        a = ProjectivePoint.from_complex(0.0)
        b = ProjectivePoint(1.0, 0.0)
        assert truncated_geodesic_length(a, b, (0j, 1.0), (0j, 1.0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_shrinking_one_horoball_adds_length(self):
        a = ProjectivePoint.from_complex(0.0)
        b = ProjectivePoint(1.0, 0.0)
        got = truncated_geodesic_length(a, b, (0j, math.exp(-1)), (0j, 1.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("height", [1e-160, 1e-170, 1e-300])
    def test_witness_depth_below_the_normal_floats(self, height):
        # the horoball at 0 through (0, h) and the unit one at infinity
        # are -log h apart; h^2 is subnormal at 1e-160 and 0 below
        a = ProjectivePoint.from_complex(0.0)
        b = ProjectivePoint(1.0, 0.0)
        got = truncated_geodesic_length(a, b, (0j, height), (0j, 1.0))
        assert got == pytest.approx(-math.log(height), rel=1e-15)

    @pytest.mark.parametrize("height", [1e160, 1e-308])
    def test_witness_past_the_float_range_rejected(self, height):
        # the horoball at infinity at this height makes the length NaN
        # or infinite, which the collapse check (<= 0) lets through
        a = ProjectivePoint(1.0, 0.0)
        b = ProjectivePoint.from_complex(0.0)
        with pytest.raises(DegenerateConfiguration) as got:
            truncated_geodesic_length(a, b, (0j, height), (0j, 1.0))
        assert str(got.value) == ("horoball truncation left the float "
                                  "range: the truncated length is not "
                                  "finite")

    @pytest.mark.parametrize("scale, need", [
        (math.nan, "finite"), (math.inf, "finite"), (-1.0, "positive"),
        (0.0, "positive")])
    @pytest.mark.parametrize("make", ["uniform", "scales", "rescaled"])
    def test_bad_scale_refused_when_made(self, setup, make, scale, need):
        # every way of making a convention checks its scales, naming the
        # first bad one in scale order, so no term ever reads one
        pd, _ = setup
        unit = TruncationConvention.uniform(pd)
        made = {
            "uniform": lambda: TruncationConvention.uniform(pd, scale),
            "scales": lambda: TruncationConvention(
                scales={"a1": 1.0, "a2": scale, "w1": scale}),
            "rescaled": lambda: unit.rescaled("a1", scale),
        }[make]
        with pytest.raises(PleatbendError) as got:
            made()
        cuff = "a2" if make == "scales" else "a1"
        assert (type(got.value), str(got.value)) == (
            PleatbendError, f"horoball scale for {cuff!r} must be {need}")

    def test_rescale_rule(self, setup):
        # leaf (0, 0) has both of its spiral ends on cuff a1
        pd, lam = setup
        real = realize(fuchsian(pd), pd)
        assert pd.pants[0].cuff_ends[0].cuff == "a1"
        assert pd.pants[0].cuff_ends[1].cuff == "a1"
        conv = TruncationConvention.uniform(pd)
        l0 = truncated_length(real, (0, 0), conv)
        delta = 0.7
        l1 = truncated_length(real, (0, 0),
                              conv.rescaled("a1", math.exp(delta)))
        assert l1 - l0 == pytest.approx(2 * delta, abs=1e-10)

    def test_lengths_move_smoothly_with_twist(self, setup):
        pd, lam = setup
        conv = TruncationConvention.uniform(pd)

        def lengths(s):
            rep = fenchel_nielsen_rep(pd, LENGTHS,
                                      (TWISTS[0] + s,) + TWISTS[1:])
            real = realize(rep, pd)
            return {leaf.key: truncated_length(real, leaf.key, conv)
                    for leaf in lam.leaves if not isinstance(leaf.key, str)}

        l0, l1 = lengths(0.0), lengths(1e-4)
        worst = max(abs(l1[k] - l0[k]) for k in l0)
        assert 0 < worst < 1e-2


class TestSampledAngleContinuity:
    def test_bend_path_angles_follow_parameter(self, setup):
        pd, lam = setup
        zeta = None
        for k in range(9):
            theta = 0.5 * k / 8
            rep = fenchel_nielsen_rep(
                pd, LENGTHS, (TWISTS[0] + theta * 1j,) + TWISTS[1:])
            zeta = (resolve_endpoints(rep, pd, "attracting")
                    if zeta is None else track_endpoints(rep, pd, zeta))
            real = realize(rep, pd, zeta)
            assert cuff_bending(real, "a1") == pytest.approx(theta, abs=1e-10)
