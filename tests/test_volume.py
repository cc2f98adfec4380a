"""Tests for the Lobachevsky function, tetrahedra, and volume variation."""

import cmath
import functools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from pleatbend import (
    AngleUnwrapFailure,
    DegenerateConfiguration,
    DegenerateTetrahedron,
    EndpointsMismatch,
    MoebiusMap,
    NotAdapted,
    OrientationTrackingFailure,
    ProjectivePoint,
    PleatbendError,
    Representation,
    TruncationConvention,
    angle_series,
    bending_data,
    enumerate_orientations,
    fenchel_nielsen_rep,
    ideal_tetra_volume,
    integrate_volume_change,
    lobachevsky,
    loop_defect,
    path_from_parameters,
    path_from_reps,
    realize,
    reduce_angle,
    resolve_endpoints,
    schlafli_derivative,
    standard_decomposition,
    track_endpoints,
    truncated_length,
    vol_gamma,
)
from pleatbend import pleated, representation, topology, volume
from pleatbend.moebius import MoebiusArray
from pleatbend.pleated import sample_images
from pleatbend.volume import (_node_derivatives, _per_step_integrals,
                              _raise_first_failure, _unwrap_angles, _zetas,
                              orientation_start_endpoints)

from _seed_kernel import (loop_node_derivatives, polyfit_per_step_integrals,
                          seed_unwrap_angles)

REGULAR_TETRA_VOLUME = 1.0149416064096535


def lobachevsky_by_quadrature(theta: float) -> float:
    """Independent oracle: minus the integral of log|2 sin u| up to theta.

    The integrand has log singularities at multiples of pi; handing
    those points to the quadrature routine keeps it at full accuracy.
    """
    if theta == 0.0:
        return 0.0
    interior = [k * math.pi for k in
                range(int(math.ceil(min(0.0, theta) / math.pi)),
                      int(math.floor(max(0.0, theta) / math.pi)) + 1)]
    pts = [p for p in interior if min(0.0, theta) < p < max(0.0, theta)]
    val, _ = quad(lambda u: math.log(abs(2.0 * math.sin(u))), 0.0, theta,
                  points=pts or None, limit=400, epsabs=1e-13, epsrel=1e-13)
    return -val


def bend_path(pd, theta_final=0.5, steps=64, lengths=(2.0, 1.7, 2.3),
              twists=(0.3, 0.1, 0.2)):
    return path_from_parameters(
        pd, lambda t: lengths,
        lambda t: (twists[0] + theta_final * t * 1j,) + twists[1:],
        steps=steps)


def turn(t):
    """2 pi t: the loops below go once around as t runs over [0, 1]."""
    return 2 * math.pi * t


def genus2_loop(pd, steps=32):
    """A closed genus-2 loop that moves complex cuff lengths; its
    orientation-summed defect converges to about 7e-3, not to 0."""
    return path_from_parameters(
        pd,
        lambda t: (2 + 0.3j * math.sin(turn(t)),
                   1.7 + 0.2 * (1 - math.cos(turn(t))),
                   2.3 + 0.1j * math.sin(2 * turn(t))),
        lambda t: (0.3 + 0.4j * math.sin(turn(t)),
                   0.1 + 0.3j * (1 - math.cos(turn(t))), 0.2),
        steps=steps)


def genus3_path(a1_length, steps):
    """Genus-3 path shaped like the vol-gamma-g3 benchmark input."""
    return path_from_parameters(
        standard_decomposition(3),
        lambda t: (a1_length(t), 2.1, 2.2 + 0.05j * t, 2.3, 2.4 + 0.05 * t,
                   2.5),
        lambda t: (0.3 + 0.15j * t, 0.2 + 0.1j * t, 0.1, 0.3, 0.2, 0.1),
        steps=steps)


def wrap_stage(monkeypatch, owner, name, wrap):
    """Replace the stage owner.name by wrap(stage) for one test: the
    function of a cached property, computed once per instance, or the
    method itself."""
    stage = getattr(owner, name)
    if isinstance(stage, functools.cached_property):
        monkeypatch.setattr(stage, "func", wrap(stage.func))
    else:
        monkeypatch.setattr(owner, name, wrap(stage))


def brute_force(path, steps=None):
    """The orientation sum as a loop: one integration per orientation."""
    out = []
    start = sample_images(path.generators, path.matrices[..., :1], path.pd)
    for ori in enumerate_orientations(path.pd):
        zeta = orientation_start_endpoints(ori, start)
        out.append(integrate_volume_change(path, zeta, steps=steps))
    return out


def central_difference_derivative(path, t, zeta):
    """dV/dt at an interior sample from three separate realizations and
    angle differences reduced mod 2 pi, term by term."""
    pd = path.pd
    k = path.index_of(t)
    if isinstance(zeta, str):
        zeta_k = resolve_endpoints(path.rep(k), pd, zeta)
    else:
        zeta_k = track_endpoints(path.rep(k), pd, zeta)
    zeta_prev = track_endpoints(path.rep(k - 1), pd, zeta_k)
    zeta_next = track_endpoints(path.rep(k + 1), pd, zeta_k)
    before, here, after = [
        bending_data(realize(path.rep(i), pd, z))
        for i, z in ((k - 1, zeta_prev), (k, zeta_k), (k + 1, zeta_next))]
    dt = path.ts[k + 1] - path.ts[k - 1]
    keys = [("cuff", c.id) for c in pd.cuffs] + [
        ("leaf", (p, i)) for p in range(len(pd.pants)) for i in range(3)]
    total = 0.0
    for kind, key in keys:
        a0, a1, a2 = (getattr(d, f"{kind}_angles")[key]
                      for d in (before, here, after))
        fwd = reduce_angle(a2 - a1)
        back = reduce_angle(a1 - a0)
        for d in (fwd, back):
            if abs(d) >= math.pi * (1 - 1e-9):
                raise AngleUnwrapFailure(
                    f"angle of {key!r} moved {d:.3f} in one step")
        total += getattr(here, f"{kind}_lengths")[key] * (fwd + back) / dt
    return 0.5 * total


def random_grid(rng, n):
    """n increasing nodes whose spacings differ by up to a factor 10."""
    return rng.uniform(-1, 1) + np.cumsum(
        np.r_[0.0, rng.uniform(0.1, 1.0, n - 1)])


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_identical(got, want):
    """Every row and the total bit for bit, NaN matching NaN."""
    assert len(got.results) == len(want)
    total = 0.0
    for g, w in zip(got.results, want):
        assert g.delta_v == w.delta_v
        assert same_float(g.error_estimate, w.error_estimate)
        assert g.ts == w.ts
        assert g.per_step == w.per_step
        assert g.cumulative == w.cumulative
        total += w.delta_v
    assert got.total == total


@pytest.fixture(scope="module")
def pd():
    return standard_decomposition(2)


class TestLobachevsky:
    def test_zeros(self):
        assert lobachevsky(0.0) == 0.0
        assert abs(lobachevsky(math.pi / 2)) < 1e-15
        assert abs(lobachevsky(math.pi)) < 1e-15

    def test_known_values(self):
        assert 3 * lobachevsky(math.pi / 3) == pytest.approx(
            REGULAR_TETRA_VOLUME, abs=1e-15)
        # the maximum sits at pi / 6
        assert lobachevsky(math.pi / 6) == pytest.approx(
            REGULAR_TETRA_VOLUME / 2, abs=1e-14)

    def test_series_constants_are_correctly_rounded(self):
        with mpmath.workdps(50):
            want = [float(mpmath.zeta(2 * k)) for k in range(1, 81)]
        assert _zetas(80)[:80] == want

    @given(theta=st.floats(-10.0, 10.0))
    def test_odd(self, theta):
        assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta),
                                                    abs=1e-13)

    @given(theta=st.floats(-4.0, 4.0))
    def test_pi_periodic(self, theta):
        assert lobachevsky(theta + math.pi) == pytest.approx(
            lobachevsky(theta), abs=1e-12)

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_against_quadrature(self):
        worst = 0.0
        for theta in np.linspace(-4.0, 4.0, 101):
            worst = max(worst, abs(lobachevsky(float(theta))
                                   - lobachevsky_by_quadrature(float(theta))))
        assert worst < 1e-12


class TestIdealTetraVolume:
    def test_regular(self):
        z = cmath.exp(1j * math.pi / 3)
        assert ideal_tetra_volume(z) == pytest.approx(REGULAR_TETRA_VOLUME,
                                                      abs=1e-14)

    def test_real_parameter_is_flat(self):
        for x in (0.3, 0.7, -2.0, 4.0):
            assert abs(ideal_tetra_volume(complex(x))) < 1e-13

    def test_conjugate_negates(self):
        z = 0.4 + 0.8j
        assert ideal_tetra_volume(z.conjugate()) == pytest.approx(
            -ideal_tetra_volume(z), abs=1e-13)

    def test_parameter_orbit(self):
        # the three cross-ratio parameters of one tetrahedron agree
        z = 0.35 + 0.6j
        v = ideal_tetra_volume(z)
        assert ideal_tetra_volume(1 / (1 - z)) == pytest.approx(v, abs=1e-12)
        assert ideal_tetra_volume(1 - 1 / z) == pytest.approx(v, abs=1e-12)

    def test_degenerate_parameters(self):
        for z in (0.0, 1.0, 1e-14 + 0j, 1 + 1e-14j, 1e14 + 0j):
            with pytest.raises(DegenerateTetrahedron):
                ideal_tetra_volume(z)


class TestSchlafliDerivative:
    def test_fuchsian_quake_has_zero_derivative(self, pd):
        path = path_from_parameters(
            pd, lambda t: (2.0, 1.7, 2.3),
            lambda t: (0.3 + 0.5 * t, 0.1, 0.2), steps=8)
        d = schlafli_derivative(path, 0.5, "attracting")
        assert abs(d) < 1e-9

    def test_pure_bend_matches_closed_form(self, pd):
        path = bend_path(pd, steps=16)
        choice = "attracting"
        for t in (0.25, 0.5, 0.75):
            d = schlafli_derivative(path, t, choice)
            assert d == pytest.approx(0.5 * 2.0 * 0.5, rel=1e-10)

    def test_endpoint_rejected(self, pd):
        path = bend_path(pd, steps=8)
        with pytest.raises(PleatbendError):
            schlafli_derivative(path, 0.0, "attracting")

    def test_nan_time_rejected(self, pd):
        path = bend_path(pd, steps=8)
        with pytest.raises(PleatbendError,
                           match="t=nan is not a sample time of this path"):
            schlafli_derivative(path, math.nan, "attracting")

    def test_horoball_independence(self):
        # on a genus-3 path whose spiral-leaf angles move by 0.3, the
        # derivative at every interior sample is the unit-horoball
        # integrand, and rescaling any one cuff's horoball by e^(+-1)
        # moves that integrand by less than 1e-8
        path = genus3_path(lambda t: 2.0 + 0.3j * t, steps=8)
        pd = path.pd
        choice = "attracting"
        angles = angle_series(path, choice)
        assert max(max(v) - min(v) for k, v in angles.items()
                   if not isinstance(k, str)) > 0.1
        images = sample_images(path.generators, path.matrices, pd)
        ts = np.array(path.ts)

        def integrand(conv):
            table, thetas, lengths, _ = pleated.path_terms(
                images, [choice], conv)
            return volume._integrand(
                table, volume._velocities(ts, thetas, lengths)[0])[0]

        unit = TruncationConvention.uniform(pd)
        base = integrand(unit)
        got = [schlafli_derivative(path, t, choice) for t in path.ts[1:-1]]
        assert got == pytest.approx(base[1:-1].tolist(), abs=1e-12)
        for cuff in pd.cuffs:
            for factor in (math.e, 1 / math.e):
                moved = integrand(unit.rescaled(cuff.id, factor))
                assert np.max(np.abs(moved - base)) < 1e-8

    def test_conjugation_invariance(self, pd):
        path = path_from_parameters(
            pd, lambda t: (2.0 + 0.2 * t, 1.7, 2.3),
            lambda t: (0.3 + 0.4j * t, 0.1, 0.2), steps=16)
        g = MoebiusMap(1.1, 0.4 - 0.2j, 0.3j, 0.9)
        conj = path_from_reps([r.conjugated(g) for r in path.reps],
                              ts=path.ts, pd=pd)
        choice = "attracting"
        assert schlafli_derivative(conj, 0.5, choice) == pytest.approx(
            schlafli_derivative(path, 0.5, choice), abs=1e-9)

    def test_coarse_branch_jump_fails(self, pd):
        path = bend_path(pd, theta_final=2 * math.pi, steps=2)
        with pytest.raises(AngleUnwrapFailure):
            schlafli_derivative(path, 0.5, "attracting")

    @pytest.mark.parametrize("eps_class", [None, 1e-3])
    def test_one_pass_at_its_tolerance(self, pd, monkeypatch, eps_class):
        # the selection at sample k is read off the three-sample pass,
        # which classifies at EPS_CLASS: a tolerance handed in is
        # refused before any pass runs
        path = bend_path(pd, steps=8)
        calls = []
        original = volume.sample_images

        def counting(generators, matrices, pd, samples):
            calls.append(matrices.shape[3])
            return original(generators, matrices, pd, samples)

        monkeypatch.setattr(volume, "sample_images", counting)
        if eps_class is not None:
            with pytest.raises(TypeError, match="'eps_class'"):
                schlafli_derivative(path, path.ts[4], "attracting",
                                    eps_class=eps_class)
            assert calls == []
            return
        got = schlafli_derivative(path, path.ts[4], "attracting")
        assert calls == [3]
        assert got == pytest.approx(0.5 * 2.0 * 0.5, rel=1e-10)

    def test_tolerance_reaches_the_classification(self, pd):
        # every entry point's sample pass classifies at EPS_CLASS: with
        # a1 sent to the identity at every sample, the cuff a1 is the
        # identity
        path = bend_path(pd, steps=8)
        path = path_from_reps(
            [Representation(generators=r.generators,
                            images=tuple(MoebiusMap.identity() if g == "a1"
                                         else m for g, m in
                                         zip(r.generators, r.images)))
             for r in path.reps], ts=path.ts, pd=pd)
        for call in (lambda: schlafli_derivative(path, path.ts[4],
                                                 "attracting"),
                     lambda: integrate_volume_change(path, "attracting"),
                     lambda: angle_series(path, "attracting"),
                     lambda: realize(path.rep(0), pd)):
            with pytest.raises(NotAdapted) as got:
                call()
            assert str(got.value) == "cuff 'a1' is identity"
        with pytest.raises(OrientationTrackingFailure) as got:
            vol_gamma(path)
        assert str(got.value).startswith(
            "cuff 'a1' is identity at the path start")

    @pytest.mark.parametrize("eps_class", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_not_finite_and_positive_rejected(self, pd,
                                                        eps_class):
        # every check classifies at EPS_CLASS: no entry point takes a
        # tolerance, not even one at which no identity, parabolic or
        # shared-endpoint guard could trip
        path = bend_path(pd, steps=8)
        for call in (lambda: integrate_volume_change(
                         path, "attracting", eps_class=eps_class),
                     lambda: vol_gamma(path, eps_class=eps_class),
                     lambda: loop_defect(path, eps_class=eps_class),
                     lambda: angle_series(path, "attracting",
                                          eps_class=eps_class),
                     lambda: realize(path.rep(0), pd, eps_class=eps_class)):
            with pytest.raises(TypeError, match="'eps_class'"):
                call()


class TestSchlafliDerivativeOracle:
    """schlafli_derivative against realizing the three samples
    separately and differencing reduced angles."""

    @pytest.mark.parametrize("name", ["elliptic_crossing",
                                      "horoball_independence",
                                      "pure_bend", "genus2_loop"])
    def test_every_interior_sample(self, pd, name):
        path = {
            "elliptic_crossing": lambda: path_from_parameters(
                pd,
                lambda t: (1.5 * (t - 0.5) ** 2 + 0.8j, 2.0 + 0.1 * t, 2.0),
                lambda t: (0.3 + 0.25j * t, 0.1 - 0.1j * t * t,
                           0.2 + 0.15j * t),
                steps=16),
            "horoball_independence": lambda: path_from_parameters(
                pd, lambda t: (2.0 + 0.3 * t, 1.7, 2.3),
                lambda t: (0.3 + 0.5j * t, 0.1, 0.2 - 0.2j * t), steps=16),
            "pure_bend": lambda: bend_path(pd, steps=16),
            "genus2_loop": lambda: genus2_loop(pd),
        }[name]()
        choice = "attracting"
        values = []
        for t in path.ts[1:-1]:
            got = schlafli_derivative(path, t, choice)
            assert got == central_difference_derivative(path, t, choice)
            values.append(got)
        # a derivative that is zero everywhere would compare equal too
        assert max(abs(v) for v in values) > 1e-3

    def test_both_reject_a_coarse_full_bend(self, pd):
        path = bend_path(pd, theta_final=2 * math.pi, steps=2)
        choice = "attracting"
        with pytest.raises(AngleUnwrapFailure):
            central_difference_derivative(path, 0.5, choice)
        with pytest.raises(AngleUnwrapFailure):
            schlafli_derivative(path, 0.5, choice)


class TestIntegrate:
    def test_pure_bend_closed_form(self, pd):
        result = integrate_volume_change(bend_path(pd),
                                         "attracting")
        assert result.delta_v == pytest.approx(0.5, rel=1e-10)
        assert result.steps == 64
        assert len(result.per_step) == 64
        assert result.cumulative[-1] == pytest.approx(result.delta_v,
                                                      abs=1e-14)
        assert result.cumulative[0] == 0.0

    def test_reversal_negates(self, pd):
        path = path_from_parameters(
            pd, lambda t: (2.0 + 0.3 * t, 1.7, 2.3),
            lambda t: (0.3 + 0.5j * t, 0.1, 0.2), steps=16)
        choice = "attracting"
        fwd = integrate_volume_change(path, choice)
        back = integrate_volume_change(path.reversed(), choice)
        assert back.delta_v == pytest.approx(-fwd.delta_v, abs=1e-12)

    def test_unknown_endpoint_label_rejected(self, pd):
        rep = fenchel_nielsen_rep(pd, (2.0, 1.7, 2.3), (0.3, 0.1, 0.2))
        with pytest.raises(PleatbendError,
                           match="unknown endpoint label 'sideways'"):
            realize(rep, pd, "sideways")
        with pytest.raises(PleatbendError,
                           match="unknown endpoint label 'sideways'"):
            integrate_volume_change(bend_path(pd, steps=4), "sideways")

    def test_start_dict_lacking_a_cuff_rejected(self, pd):
        path = bend_path(pd, steps=4)
        zeta = resolve_endpoints(path.rep(0), pd, "attracting")
        del zeta["a1"]
        for call in (lambda: realize(path.rep(0), pd, zeta),
                     lambda: track_endpoints(path.rep(1), pd, zeta),
                     lambda: integrate_volume_change(path, zeta),
                     lambda: angle_series(path, zeta),
                     lambda: schlafli_derivative(path, path.ts[2], zeta)):
            with pytest.raises(PleatbendError) as got:
                call()
            assert (type(got.value), str(got.value)) == (
                PleatbendError, "start endpoints lack cuffs ['a1']")

    @pytest.mark.parametrize("entry", ["bending_data", "truncated_length"])
    def test_scales_lacking_a_cuff_rejected(self, pd, entry):
        # a convention without a scale for w1 is refused, naming it
        real = realize(bend_path(pd, steps=4).rep(0), pd)
        conv = TruncationConvention(scales={"a1": 1.0, "a2": 1.0})
        call = {
            "bending_data": lambda: bending_data(real, conv),
            "truncated_length": lambda: truncated_length(real, (0, 0), conv),
        }[entry]
        with pytest.raises(PleatbendError) as got:
            call()
        assert (type(got.value), str(got.value)) == (
            PleatbendError, "truncation scales lack cuffs ['w1']")

    @pytest.mark.parametrize("scale, need", [
        (math.nan, "finite"), (math.inf, "finite"), (-1.0, "positive")])
    @pytest.mark.parametrize("entry", ["bending_data", "truncated_length"])
    def test_scale_not_finite_and_positive_rejected(self, pd, entry, scale,
                                                     need):
        # a NaN or infinite scale made every truncated length NaN; the
        # convention refuses it when it is made, as a non-positive one,
        # naming the first cuff, so no term is computed with it
        real = realize(bend_path(pd, steps=4).rep(0), pd)
        call = {
            "bending_data": lambda: bending_data(
                real, TruncationConvention.uniform(pd, scale)),
            "truncated_length": lambda: truncated_length(
                real, (0, 0), TruncationConvention.uniform(pd, scale)),
        }[entry]
        with pytest.raises(PleatbendError) as got:
            call()
        assert (type(got.value), str(got.value)) == (
            PleatbendError, f"horoball scale for 'a1' must be {need}")

    @pytest.mark.parametrize("scale", [1e160, 1e-308])
    @pytest.mark.parametrize("entry", ["bending_data", "truncated_length"])
    def test_scale_past_the_float_range_rejected(self, pd, entry, scale):
        # a finite positive scale whose witness height leaves the float
        # range made a leaf length NaN or -inf; the truncation refuses it
        real = realize(bend_path(pd, steps=4).rep(0), pd)
        conv = TruncationConvention.uniform(pd, scale)
        call = {
            "bending_data": lambda: bending_data(real, conv),
            "truncated_length": lambda: truncated_length(real, (0, 0), conv),
        }[entry]
        with pytest.raises(DegenerateConfiguration) as got:
            call()
        assert str(got.value) == (
            "horoball truncation left the float range: the truncated "
            "length of leaf (0, 0) is not finite")

    def test_convention_in_the_old_position_is_an_arity_error(self, pd):
        # steps is keyword-only, so a convention passed where the ΔV
        # entry points once took one cannot bind to it
        path = bend_path(pd, steps=4)
        conv = TruncationConvention.uniform(pd)
        for call in (lambda: integrate_volume_change(path, "attracting",
                                                     conv),
                     lambda: angle_series(path, "attracting", conv),
                     lambda: schlafli_derivative(path, path.ts[2],
                                                 "attracting", conv),
                     lambda: vol_gamma(path, conv),
                     lambda: loop_defect(path, conv)):
            with pytest.raises(TypeError, match="positional argument"):
                call()

    def test_rescaling_a_missing_cuff_rejected(self, pd):
        conv = TruncationConvention.uniform(pd)
        with pytest.raises(PleatbendError) as got:
            conv.rescaled("zz", 2.0)
        assert (type(got.value), str(got.value)) == (
            PleatbendError, "truncation scales lack cuffs ['zz']")
        assert conv.rescaled("a1", 2.0).scales == {**conv.scales, "a1": 2.0}

    def test_constant_path_is_zero(self, pd):
        from pleatbend import fenchel_nielsen_rep
        rep = fenchel_nielsen_rep(pd, (2.0, 1.7, 2.3), (0.3, 0.1, 0.2))
        path = path_from_reps([rep] * 5, pd=pd)
        result = integrate_volume_change(path, "attracting")
        assert result.delta_v == 0.0

    def test_step_subsampling(self, pd):
        path = bend_path(pd)
        choice = "attracting"
        full = integrate_volume_change(path, choice)
        half = integrate_volume_change(path, choice, steps=32)
        assert half.steps == 32
        assert half.delta_v == pytest.approx(full.delta_v, rel=1e-9)
        with pytest.raises(PleatbendError):
            integrate_volume_change(path, choice, steps=3)
        with pytest.raises(PleatbendError):
            integrate_volume_change(path, choice, steps=1)

    def test_error_estimate_brackets_refinement(self, pd):
        # varying lengths keep Simpson from being exact, so the
        # Richardson estimate has something real to measure
        def make(steps):
            return path_from_parameters(
                pd, lambda t: (2.0 + 0.4 * math.sin(t), 1.7, 2.3),
                lambda t: (0.3 + 0.6j * t * t, 0.1, 0.2), steps=steps)
        choice = "attracting"
        coarse = integrate_volume_change(make(16), choice)
        fine = integrate_volume_change(make(64), choice)
        assert not math.isnan(coarse.error_estimate)
        assert coarse.error_estimate < 1e-6
        assert abs(coarse.delta_v - fine.delta_v) < \
            10 * coarse.error_estimate + 1e-12

    def test_error_estimate_nan_on_odd_interval_count(self, pd):
        path = bend_path(pd, steps=5)
        result = integrate_volume_change(path, "attracting")
        assert math.isnan(result.error_estimate)

    def test_error_estimate_nan_when_subsample_fails_to_unwrap(self, pd):
        # fine steps of pi/2 unwrap; the coarse step of pi does not
        path = bend_path(pd, theta_final=2 * math.pi, steps=4)
        result = integrate_volume_change(path, "attracting")
        assert result.delta_v == pytest.approx(2 * math.pi, rel=1e-9)
        assert math.isnan(result.error_estimate)
        rows = vol_gamma(path).results
        assert len(rows) == 8
        for r in rows:
            assert math.isfinite(r.delta_v)
            assert math.isnan(r.error_estimate)

    def test_additivity_at_even_splits(self, pd):
        choice = "attracting"
        whole = integrate_volume_change(
            path_from_parameters(
                pd, lambda t: (2.0 + 0.3 * t, 1.7, 2.3),
                lambda t: (0.3 + 0.5j * t, 0.1, 0.2), steps=32), choice)
        pieces = []
        for t0, t1 in ((0.0, 0.5), (0.5, 1.0)):
            pieces.append(integrate_volume_change(
                path_from_parameters(
                    pd, lambda t: (2.0 + 0.3 * t, 1.7, 2.3),
                    lambda t: (0.3 + 0.5j * t, 0.1, 0.2),
                    steps=16, t0=t0, t1=t1), choice))
        assert sum(p.delta_v for p in pieces) == pytest.approx(
            whole.delta_v, abs=5e-10)


GRID_SIZES = [3, 4, 5, 16, 17]


class TestQuadrature:
    """The closed-form weights of _per_step_integrals and the node
    derivatives, on non-uniform grids of odd and even interval count."""

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_quadratics_integrate_exactly(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            ts = random_grid(rng, n)
            c = rng.uniform(-1, 1, 3)
            got = _per_step_integrals(ts, c[0] + c[1] * ts + c[2] * ts ** 2)
            assert got.shape == (n - 1,)

            def anti(t):
                t = Fraction(float(t))
                return (Fraction(c[0]) * t + Fraction(c[1]) * t ** 2 / 2
                        + Fraction(c[2]) * t ** 3 / 3)

            for k, (a, b) in enumerate(zip(ts[:-1], ts[1:])):
                exact = float(anti(b) - anti(a))
                # relative to the length times a bound on |f| over [a, b]
                m = max(abs(a), abs(b))
                scale = (b - a) * (abs(c[0]) + abs(c[1]) * m + abs(c[2]) * m * m)
                assert abs(got[k] - exact) <= 1e-13 * scale

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_matches_polyfit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            ts = random_grid(rng, n)
            fs = np.sin(3 * ts) + rng.uniform(-1, 1)
            got = _per_step_integrals(ts, fs)
            want = np.array(polyfit_per_step_integrals(ts, fs))
            bound = 1e-13 * np.diff(ts) * np.abs(fs).max()
            assert np.all(np.abs(got - want) <= bound)
            rows = _per_step_integrals(ts, np.stack([fs, 2 * fs]))
            assert rows[0].tolist() == got.tolist()

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_node_derivatives_equal_loop(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(50):
            ts = random_grid(rng, n)
            ys = rng.standard_normal((3, n))
            got = _node_derivatives(ts, ys)
            for row, y in zip(got, ys):
                assert row.tolist() == loop_node_derivatives(ts, y).tolist()
            assert _node_derivatives(ts, ys[0]).tolist() == got[0].tolist()

    @staticmethod
    def assert_unwrap_equals_loop(values):
        """_unwrap_angles against the recurrence, row by row: the same
        failing rows and messages, NaN where a row fails, and lifts that
        agree within their rounding.

        Up to rounding, both lifts are the sample plus the same multiple
        of the float 2 pi.  With u = eps / 2, the loop's value at sample
        k carries two roundings, of v_k - out_(k-1) and of the sum, each
        within u (|theta| + 2 pi); they do not add up along the row.
        The running sum rounds each of its k differences, within u 2 pi,
        and each of its k partial sums, within u |theta|.  So the two
        agree within (k + 2) eps max(2 pi, |theta|), with |theta| the
        largest up to sample k.
        """
        thetas, jumps = _unwrap_angles(values)
        for row, theta, jump in zip(values, thetas, jumps):
            try:
                want = seed_unwrap_angles(row)
            except AngleUnwrapFailure as exc:
                with pytest.raises(AngleUnwrapFailure) as got:
                    _raise_first_failure(np.zeros((1, 1), dtype=int),
                                         np.array([jump]))
                assert str(got.value) == str(exc)
                assert np.isnan(theta).all()
            else:
                assert np.isnan(jump)
                k = np.arange(len(want))
                scale = np.maximum.accumulate(np.maximum(np.abs(want),
                                                         2 * math.pi))
                bound = (k + 2) * np.finfo(float).eps * scale
                assert np.all(np.abs(theta - want) <= bound)

    @given(st.integers(0, 2 ** 32 - 1),
           st.one_of(st.integers(2, 60), st.just(1025)),
           st.integers(1, 12), st.sampled_from([0.05, 0.5, 1.5, 2.5]),
           st.floats(-1e3, 1e3))
    @example(seed=7, n=1025, rows=9, step=0.5, start=0.0)
    @example(seed=7, n=1025, rows=9, step=1.5, start=0.0)
    @settings(max_examples=200, deadline=None)
    def test_unwrap_equals_loop(self, seed, n, rows, step, start):
        # angle rows as the pipeline reads them, reduced into (-pi, pi]
        # from a random walk; the larger steps wrap.  A random step is
        # almost never within 1e-9 of pi, so about a third of the rows
        # get one step that fails them, 5e-10 pi short of +-pi: a step
        # of pi itself may reduce to pi in one form and to -pi in the
        # other.  The examples have volume-path-g2's shape, 9 rows of
        # 1025 samples.
        rng = np.random.default_rng(seed)
        walk = start + np.cumsum(rng.normal(0.0, step, (rows, n)), axis=1)
        for row, k in zip(walk, rng.integers(1, 3 * n, rows)):
            if k < n:
                jump = (-1) ** k * math.pi * (1 - 5e-10)
                row[k:] += jump - (row[k] - row[k - 1])
        self.assert_unwrap_equals_loop(np.array(
            [[reduce_angle(x) for x in row] for row in walk.tolist()]))

    def test_unwrap_threshold(self):
        # a row fails at its first step of pi (1 - 1e-9) or more, in
        # either direction; the step just under it unwraps
        edge = math.pi * (1 - 1e-9)
        values = np.array([[0.0, edge * (1 - 1e-9), 0.0],
                           [0.0, edge, 0.0],
                           [0.0, 0.0, -edge],
                           [1.0, 1.0 - edge * (1 - 1e-9), 1.0],
                           [3.0, -3.0, math.pi]])
        _, jumps = _unwrap_angles(values)
        assert np.isnan(jumps).tolist() == [True, False, False, True, True]
        self.assert_unwrap_equals_loop(values)


class TestVolGamma:
    def test_orientation_count(self, pd):
        assert len(list(enumerate_orientations(pd))) == 8

    def test_bend_contributions_cancel(self, pd):
        assert abs(vol_gamma(bend_path(pd, steps=16)).total) < 1e-10

    def test_fuchsian_path_is_flat(self, pd):
        path = path_from_parameters(
            pd, lambda t: (2.0 + 0.2 * t, 1.7, 2.3),
            lambda t: (0.3 + 0.4 * t, 0.1, 0.2), steps=8)
        assert abs(vol_gamma(path).total) < 1e-10

    def test_elliptic_start_rejected(self, pd):
        path = path_from_parameters(
            pd, lambda t: (0.8j + 1.5 * t * t, 1.7, 2.3),
            lambda t: (0.3, 0.1, 0.2), steps=8)
        with pytest.raises(OrientationTrackingFailure):
            vol_gamma(path).total

    def test_steps_checked_before_the_start(self, pd):
        # the start cuff is elliptic and 3 steps do not divide 8: the
        # steps error is raised first, as integrate_volume_change does
        path = path_from_parameters(
            pd, lambda t: (0.8j + 1.5 * t * t, 1.7, 2.3),
            lambda t: (0.3, 0.1, 0.2), steps=8)
        with pytest.raises(PleatbendError, match="cannot take 3 steps"):
            vol_gamma(path, steps=3)

    @pytest.mark.parametrize("steps", [4.0, 3.0, "4"], ids=repr)
    @pytest.mark.parametrize("run", ["volume-path", "vol-gamma"])
    def test_steps_not_an_integer_refused(self, pd, run, steps):
        # steps is read as an index, before any division: 4.0 divides 8
        # and 3.0 does not, and both are refused alike
        path = bend_path(pd, steps=8)
        with pytest.raises(TypeError, match="cannot be interpreted as an "
                                            "integer"):
            if run == "volume-path":
                integrate_volume_change(path, "attracting", steps=steps)
            else:
                vol_gamma(path, steps=steps)


class TestLoopDefect:
    def test_retraced_path(self, pd):
        fwd = bend_path(pd, theta_final=0.25, steps=16)
        ts = fwd.ts + tuple(2.0 - t for t in reversed(fwd.ts[:-1]))
        reps = fwd.reps + tuple(reversed(fwd.reps[:-1]))
        loop = path_from_reps(reps, ts=ts, pd=pd)
        report = loop_defect(loop)
        assert abs(report.defect) < 1e-10
        assert report.fingerprint_distance < 1e-12

    def test_full_bend_loop(self, pd):
        loop = bend_path(pd, theta_final=2 * math.pi, steps=64)
        report = loop_defect(loop)
        assert abs(report.defect) < 1e-8

    def test_open_path_rejected(self, pd):
        with pytest.raises(EndpointsMismatch):
            loop_defect(bend_path(pd, steps=16))

    def test_no_estimate_is_nan(self, pd):
        # at 15 steps no orientation has an error estimate, and the sum
        # of none of them is no estimate, not an exact one
        report = loop_defect(genus2_loop(pd, steps=15))
        assert math.isfinite(report.defect)
        assert math.isnan(report.error_estimate)


class TestVolGammaOracle:
    """vol_gamma against integrating every orientation separately."""

    def test_genus2_loop(self, pd):
        loop = genus2_loop(pd)
        want = brute_force(loop)
        # nonzero rows, so a term read under the wrong endpoints shows
        assert max(abs(w.delta_v) for w in want) > 1e-3
        got = vol_gamma(loop)
        assert_identical(got, want)
        assert got.total == pytest.approx(7.80e-3, abs=5e-6)
        report = loop_defect(loop)
        err = 0.0
        for w in want:
            if not math.isnan(w.error_estimate):
                err += w.error_estimate
        assert report.defect == got.total
        assert report.error_estimate == err
        assert vol_gamma(loop).total == got.total

    def test_pure_bend(self, pd):
        path = bend_path(pd, steps=16)
        assert_identical(vol_gamma(path), brute_force(path))

    @pytest.mark.parametrize("steps", [None, 4])
    def test_genus3(self, steps):
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)
        want = brute_force(path, steps=steps)
        assert len(want) == 64
        assert_identical(vol_gamma(path, steps=steps), want)

    def test_tracking_failure_parity(self):
        # a1 at 2 + 0.3i sin 2 pi t closes the fixed-point gap of cuff
        # a2 to 0.0065, and tracking it fails
        path = genus3_path(lambda t: 2 + 0.3j * math.sin(turn(t)), steps=16)
        with pytest.raises(OrientationTrackingFailure) as oracle:
            brute_force(path)
        with pytest.raises(OrientationTrackingFailure) as pipeline:
            vol_gamma(path)
        assert "'a2'" in str(oracle.value)
        assert "gap of 0.0065" in str(oracle.value)
        assert str(pipeline.value) == str(oracle.value)

    def test_later_failure_of_first_orientation_wins(self, pd):
        # on this coarse conjugation circle the repelling endpoint of a2
        # loses track before the attracting one does; integrating
        # orientation by orientation reports the all-forward failure
        rep0 = fenchel_nielsen_rep(pd, (1.1, 1.7, 2.3), (0.3, 0.1, 0.2))
        e1 = np.array([[0.2, 0.5], [0.1, -0.2]], dtype=complex)
        e2 = np.array([[0.1j, -0.3], [0.4, -0.1j]], dtype=complex)
        ts = np.linspace(0.0, 1.0, 33)
        reps = []
        for t in ts:
            m = expm(0.15 * (math.cos(turn(t)) * e1 + math.sin(turn(t)) * e2))
            reps.append(rep0.conjugated(MoebiusMap(m[0, 0], m[0, 1],
                                                   m[1, 0], m[1, 1])))
        loop = path_from_reps(reps, ts=ts, pd=pd)
        with pytest.raises(OrientationTrackingFailure) as oracle:
            brute_force(loop)
        with pytest.raises(OrientationTrackingFailure) as pipeline:
            vol_gamma(loop)
        assert str(pipeline.value) == str(oracle.value)


def pass_words(pd) -> set:
    """The words the sample pass evaluates."""
    words = {c.word for c in pd.cuffs}
    words |= {w for row in pd.slot_words for w in row}
    words |= {e.conjugator for pants in pd.pants for e in pants.cuff_ends}
    return words | set(pd.crossing_words.values())


class PassWork:
    """The work of the sample pipeline, recorded in every pleatbend
    module: each sample_images call with its arguments and the pass it
    returned, every MoebiusArray product, every placement with its
    geometry, every scalar evaluate_word call, and every ProjectivePoint
    made, by its constructor or as the coordinates of an array element."""

    def __init__(self, monkeypatch):
        self.passes, self.products, self.placed = [], [], []
        self.scalar, self.constructed, self.wrapped = [], [], []
        fill = pleated.sample_images
        evaluate = representation.evaluate_word
        product = MoebiusArray.__matmul__
        place = pleated._Geometry.place
        construct = ProjectivePoint.__init__
        wrap = ProjectivePoint._raw.__func__

        def counting_fill(*args):
            images = fill(*args)
            self.passes.append((args, images))
            return images

        def counting_evaluate(rep, word):
            self.scalar.append((rep, word))
            return evaluate(rep, word)

        def counting_product(left, right):
            self.products.append(np.broadcast_shapes(left.re.shape,
                                                     right.re.shape)[2:])
            return product(left, right)

        def counting_place(geometry, failures):
            self.placed.append(geometry)
            return place(geometry, failures)

        def counting_construct(point, *args):
            self.constructed.append(args)
            return construct(point, *args)

        def counting_wrap(cls, *args):
            self.wrapped.append(args)
            return wrap(cls, *args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "pleatbend":
                continue
            if getattr(module, "evaluate_word", None) is evaluate:
                monkeypatch.setattr(module, "evaluate_word", counting_evaluate)
            if getattr(module, "sample_images", None) is fill:
                monkeypatch.setattr(module, "sample_images", counting_fill)
        monkeypatch.setattr(MoebiusArray, "__matmul__", counting_product)
        monkeypatch.setattr(pleated._Geometry, "place", counting_place)
        monkeypatch.setattr(ProjectivePoint, "__init__", counting_construct)
        monkeypatch.setattr(ProjectivePoint, "_raw", classmethod(counting_wrap))

    def assert_words_evaluated_once(self, path):
        # one pass over every sample, evaluating every word the
        # pipeline reads: one stacked product per token depth, of the
        # distinct prefixes of that depth over all samples, and three
        # for the commutators of every slot row and pair
        [((generators, matrices, pd, samples), images)] = self.passes
        assert generators == path.generators
        assert list(samples) == list(range(len(path)))
        assert matrices.tobytes() == path.matrices.tobytes()
        assert pd is path.pd
        assert len(images) == len(path)
        assert set(images.words) == pass_words(path.pd)
        tokens = [topology._tokens(w) for w in images.words]
        depth = max(map(len, tokens))
        prefixes = [{t[:k] for t in tokens if len(t) >= k}
                    for k in range(1, depth + 1)]
        n = len(path)
        assert self.products == ([(len(level), n) for level in prefixes]
                                 + [(len(images.rows), 3, n)] * 3)
        assert self.scalar == []


class TestSampleWork:
    """How much work the sample pipeline does per path sample."""

    def test_each_word_evaluated_once_per_sample(self, pd,
                                                 monkeypatch):
        path = bend_path(pd, steps=8)
        want = integrate_volume_change(path, "attracting")
        work = PassWork(monkeypatch)
        got = integrate_volume_change(path, "attracting")
        work.assert_words_evaluated_once(path)
        assert got == want

    @pytest.mark.parametrize("start", ["bogus", "lacks-a1"])
    def test_bad_start_places_nothing(self, pd, monkeypatch, start):
        # an unknown label, or a start dict that lacks a cuff, raises in
        # endpoint selection: no plaque is placed and no term computed
        path = bend_path(pd, steps=4)
        if start == "lacks-a1":
            start = {c: z for c, z in resolve_endpoints(
                path.rep(0), pd, "attracting").items() if c != "a1"}
        work = PassWork(monkeypatch)
        for call in (lambda: realize(path.rep(0), pd, start),
                     lambda: integrate_volume_change(path, start)):
            with pytest.raises(PleatbendError):
                call()
        assert work.placed == []

    def test_each_pants_pattern_placed_once_per_sample(self, monkeypatch):
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)
        want = vol_gamma(path)
        work = PassWork(monkeypatch)
        got = vol_gamma(path)
        # one placement; with two endpoint chains, pants p is placed at
        # its 2^k patterns of chains (k cuffs), each a row over samples
        [geometry] = work.placed
        assert geometry.vertices.z1r.shape[0] == 3
        assert [geometry.vertices[0, rows].z1r.shape
                for rows in geometry.pants_rows] \
            == [(2 ** len({e.cuff for e in pants.cuff_ends}), len(path))
                for pants in path.pd.pants]
        assert_identical(got, want.results)

    def test_vol_gamma_evaluates_each_word_once_per_sample(self,
                                                           monkeypatch):
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)
        want = vol_gamma(path)
        work = PassWork(monkeypatch)
        got = vol_gamma(path)
        work.assert_words_evaluated_once(path)
        assert_identical(got, want.results)

    def test_stages_run_once_per_pass_at_any_genus(self, monkeypatch):
        # every stage of the geometry pass stacks all cuffs, pants and
        # leaves on one array axis, so a genus-3 vol_gamma runs each
        # stage, and each kernel step in it, as often as a genus-2 one
        calls = {}

        def counting(name, f):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return f(*args, **kwargs)
            return wrapper

        for name in ("_selection", "_cuff_lengths", "reduce_angle_array",
                     "chordal_array",
                     "cross_ratio_array"):
            monkeypatch.setattr(pleated, name,
                                counting(name, getattr(pleated, name)))
        for cls, names in ((pleated._Geometry, ("place", "cuff_angles",
                                                "leaf_angles",
                                                "leaf_lengths")),
                           (MoebiusArray, ("classify", "fixed_points", "apply",
                                           "apply_interior"))):
            for name in names:
                wrap_stage(monkeypatch, cls, name,
                           functools.partial(counting, name))
        counts = []
        for path in (bend_path(standard_decomposition(2), steps=8),
                     genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)):
            calls.clear()
            vol_gamma(path)
            counts.append(dict(calls))
        assert counts[1] == counts[0]
        # one selection per endpoint chain, every other stage once
        assert {name: counts[1][name] for name in (
            "_selection", "place", "cuff_angles", "leaf_angles",
            "leaf_lengths", "_cuff_lengths", "classify", "fixed_points")} \
            == {"_selection": 2, "place": 1, "cuff_angles": 1,
                "leaf_angles": 1, "leaf_lengths": 1, "_cuff_lengths": 1,
                "classify": 1, "fixed_points": 1}

    def test_angle_series_runs_no_length_stage(self, monkeypatch):
        # angle_series reports angles only: it runs the angle stages and
        # neither length stage, which vol_gamma runs once each
        calls = dict.fromkeys(("cuff_angles", "leaf_angles", "leaf_lengths",
                               "_cuff_lengths"), 0)

        def counting(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name in ("cuff_angles", "leaf_angles", "leaf_lengths"):
            wrap_stage(monkeypatch, pleated._Geometry, name,
                       functools.partial(counting, name))
        monkeypatch.setattr(pleated, "_cuff_lengths", counting(
            "_cuff_lengths", pleated._cuff_lengths))
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)
        angle_series(path, "attracting")
        assert calls == {"cuff_angles": 1, "leaf_angles": 1,
                         "leaf_lengths": 0, "_cuff_lengths": 0}
        calls.update(dict.fromkeys(calls, 0))
        vol_gamma(path)
        assert calls == {"cuff_angles": 1, "leaf_angles": 1,
                         "leaf_lengths": 1, "_cuff_lengths": 1}

    @pytest.mark.parametrize("run", ["volume-path", "vol-gamma"])
    def test_no_point_made_per_sample(self, run, monkeypatch):
        # the pipeline reads points as arrays, and vol_gamma's two chains
        # start from the labels: no ProjectivePoint is made
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)
        work = PassWork(monkeypatch)
        if run == "volume-path":
            integrate_volume_change(path, "attracting")
        else:
            vol_gamma(path)
        assert work.constructed == []
        assert work.wrapped == []

    def test_lamination_built_once_per_call(self, pd, monkeypatch):
        calls = []
        build = topology.build_lamination

        def counting(surface):
            calls.append(surface)
            return build(surface)

        # every module that holds build_lamination under its own name
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "pleatbend"
                    and getattr(module, "build_lamination", None) is build):
                monkeypatch.setattr(module, "build_lamination", counting)
        path = bend_path(pd, steps=4)
        integrate_volume_change(path, "attracting")
        assert calls == [pd]
        vol_gamma(path)
        assert calls == [pd, pd]
        angle_series(path, "attracting")
        assert calls == [pd, pd, pd]
