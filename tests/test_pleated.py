"""Tests for realizations, bending angles, truncation, and adaptedness."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pleatbend import (
    CuffCrossing,
    IsometryClass,
    LeafCrossing,
    MoebiusMap,
    NotAdapted,
    OrientationTrackingFailure,
    ProjectivePoint,
    Representation,
    TransverseArc,
    TruncationConvention,
    arc_bending,
    bending_data,
    build_lamination,
    check_adapted,
    chordal,
    cuff_bending,
    fenchel_nielsen_rep,
    normalizing_map,
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
from pleatbend.moebius import KINDS
from pleatbend.pleated import sample_images
from pleatbend.representation import _matrices_of

LENGTHS = (2.0, 1.7, 2.3)
TWISTS = (0.3, 0.1, 0.2)


@pytest.fixture(scope="module")
def setup():
    pd = standard_decomposition(2)
    lam = build_lamination(pd)
    return pd, lam


def fuchsian(pd):
    return fenchel_nielsen_rep(pd, LENGTHS, TWISTS)


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
            monkeypatch.setattr(pleated._Geometry, name, counting(
                name, getattr(pleated._Geometry, name)))
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
        # every check that reads a sample classifies at the tolerance
        # of its pass: at 3, the length-2 cuff a1 is the identity
        pd, _ = setup
        rep = fuchsian(pd)
        zeta = resolve_endpoints(rep, pd, "attracting")
        images = sample_images(rep.generators, _matrices_of([rep]), pd,
                               eps_class=3)
        assert KINDS[images.kinds[pd.cuff_index("a1"), 0]] == \
            IsometryClass.IDENTITY
        with pytest.raises(NotAdapted, match="cuff 'a1' is identity"):
            resolve_endpoints(images, pd, "attracting")
        with pytest.raises(NotAdapted, match="cuff 'a1' is identity"):
            track_endpoints(images, pd, zeta)
        report = check_adapted(images, pd)
        assert not report.adapted
        assert "a1" in report.bad_cuffs
        assert report.cuff_kinds["a1"] == IsometryClass.IDENTITY
        # a bare representation gets the pass at EPS_CLASS
        assert check_adapted(rep, pd).adapted


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
