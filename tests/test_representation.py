"""Tests for word evaluation, characters, gluing, and serialization."""

import cmath
import importlib.resources
import inspect
import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pleatbend import (
    CharacterFingerprint,
    InvalidDecomposition,
    MoebiusMap,
    PleatbendError,
    ReducibleRepresentation,
    Representation,
    RepresentationPath,
    commutator_trace,
    complex_length,
    conjugacy_residual,
    evaluate_word,
    fenchel_nielsen_rep,
    fingerprint,
    inclusion_relator_residual,
    jacobian_rank,
    load_document,
    load_rep,
    path_from_dict,
    path_from_parameters,
    path_from_reps,
    path_to_dict,
    peripheral_fingerprint,
    random_representation,
    rep_from_dict,
    rep_from_trace_triple,
    rep_to_dict,
    save_path,
    standard_decomposition,
    standard_word_list,
)
from pleatbend.errors import SingularMatrix, UnknownLetter
from pleatbend.moebius import (EPS_CLASS, IsometryClass, classify,
                               trace_squared)
from pleatbend.representation import (EPS_RANK, _common_fixed_point_tol,
                                      _squared_trace_jacobian)
from pleatbend.topology import BoundaryComponent, BoundaryInclusion, parse_word

from _seed_kernel import (SeedMoebiusMap, build_both,
                          central_difference_jacobian_rank,
                          conjugation_tangents, entries_of,
                          raw_entries, seed_common_fixed_point_tol,
                          seed_jacobian_rank, seed_squared_trace_jacobian,
                          steep, steep_entries)


DATA = importlib.resources.files("pleatbend.data")


def f2_rep() -> Representation:
    return Representation(
        generators=("x", "y"),
        images=(MoebiusMap(2, 0, 0, 0.5), MoebiusMap(1, 1, 0, 1)),
    )


def moebius_entries(draw_scale=2.0):
    part = st.floats(-draw_scale, draw_scale)
    return st.builds(complex, part, part)


def well_conditioned_maps():
    # parametrize so the determinant is 1 by construction
    def build(u, b, c):
        a = cmath.exp(u)
        return MoebiusMap(a, b, c, (1 + b * c) / a)

    e = moebius_entries()
    return st.builds(build, e, e, e)


class TestEvaluateWord:
    def test_product_entries(self):
        rep = f2_rep()
        m = evaluate_word(rep, "xy")
        assert abs(m.a - 2) < 1e-12
        assert abs(m.b - 2) < 1e-12
        assert abs(m.c) < 1e-12
        assert abs(m.d - 0.5) < 1e-12

    def test_empty_word_is_identity(self):
        rep = f2_rep()
        assert evaluate_word(rep, "").is_identity()

    def test_capitals_are_inverses(self):
        rep = f2_rep()
        assert evaluate_word(rep, "xX").is_identity()
        assert evaluate_word(rep, "YxyXxY").distance_to(
            evaluate_word(rep, "Yxy" + "XxY")) < 1e-12

    def test_unknown_letter(self):
        rep = f2_rep()
        with pytest.raises(UnknownLetter):
            evaluate_word(rep, "xz")


# ---------------------------------------------------------------------------
# bit-identity oracle for word evaluation: the left fold and the tokenizer
# as they were before words were tokenized once per process, on the
# reference kernel in _seed_kernel


_TOKEN = re.compile(r"[A-Za-z][0-9]*")


def seed_parse_word(word: str) -> list[tuple[str, bool]]:
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(word):
        if m.start() != pos:
            raise UnknownLetter(f"cannot tokenize {word[pos:m.start()]!r} in {word!r}")
        t = m.group(0)
        tokens.append((t[0].lower() + t[1:], t[0].isupper()))
        pos = m.end()
    if pos != len(word):
        raise UnknownLetter(f"cannot tokenize {word[pos:]!r} in {word!r}")
    return tokens


def seed_evaluate_word(table: dict, word: str) -> SeedMoebiusMap:
    out = SeedMoebiusMap.identity()
    for base, inv in seed_parse_word(word):
        if base not in table:
            raise UnknownLetter(f"no image for generator {base!r}")
        m = table[base]
        out = out @ (m.inverse() if inv else m)
    return out


GENERATORS = ("x", "a1", "b12")
letters = st.sampled_from(GENERATORS + ("X", "A1", "B12"))
words = st.lists(letters, max_size=12).map("".join)


class TestWordOracle:
    @given(st.lists(st.one_of(raw_entries, steep_entries),
                    min_size=3, max_size=3), words)
    @settings(max_examples=300)
    # x has entries ~7e49 after normalization: x^8 overflows to NaN entries
    # on both sides
    @example([(1.0, 2.0, 1e-100j, 0), steep(800.0, 0.0), (0, 1, 1j, 0)],
             "xxxxxxxx")
    def test_evaluate_word(self, args, word):
        pairs = [build_both(a) for a in args]
        assume(None not in pairs)
        rep = Representation(GENERATORS, tuple(m for m, _ in pairs))
        table = dict(zip(GENERATORS, (n for _, n in pairs)))
        try:
            want = seed_evaluate_word(table, word)
        except SingularMatrix as exc:
            # a product of tiny-determinant inputs can underflow
            with pytest.raises(SingularMatrix) as info:
                evaluate_word(rep, word)
            assert str(info.value) == str(exc)
            return
        assert entries_of(evaluate_word(rep, word)) == entries_of(want)

    @given(st.lists(st.sampled_from(["x", "X", "a1", "B12", "q", "7", "*",
                                     " ", "é", "y3"]),
                    max_size=6).map("".join))
    def test_parse_word_and_messages(self, word):
        try:
            want = seed_parse_word(word)
        except UnknownLetter as exc:
            with pytest.raises(UnknownLetter) as info:
                parse_word(word)
            assert str(info.value) == str(exc)
            return
        assert parse_word(word) == want
        table = {"x": SeedMoebiusMap(2, 0, 0, 0.5),
                 "y": SeedMoebiusMap(1, 1, 0, 1)}
        try:
            image = seed_evaluate_word(table, word)
        except UnknownLetter as exc:
            with pytest.raises(UnknownLetter) as info:
                evaluate_word(f2_rep(), word)
            assert str(info.value) == str(exc)
            return
        assert entries_of(evaluate_word(f2_rep(), word)) == entries_of(image)

    def test_parse_word_returns_a_fresh_list(self):
        first = parse_word("a1B2a1")
        first.append(("zz", True))
        first[0] = ("b2", True)
        second = parse_word("a1B2a1")
        assert second == [("a1", False), ("b2", True), ("a1", False)]
        assert second is not parse_word("a1B2a1")


class TestRepresentation:
    def test_image_count_mismatch(self):
        with pytest.raises(InvalidDecomposition):
            Representation(generators=("x", "y"),
                           images=(MoebiusMap.identity(),))

    def test_repeated_generator_refused(self):
        # a file keeps one image per name
        with pytest.raises(PleatbendError,
                           match="generator 'x' is listed twice"):
            Representation(("x", "y", "x"), (f2_rep().images * 2)[:3])

    def test_relator_residual_empty(self):
        assert f2_rep().relator_residual() == 0.0

    def test_relator_residual_detects_failure(self):
        rep = Representation(generators=("x", "y"),
                             images=f2_rep().images,
                             relators=("xy",))
        assert rep.relator_residual() > 0.5


class TestFingerprint:
    def test_standard_word_list(self):
        assert standard_word_list(("x", "y")) == ("x", "y", "xy")
        assert standard_word_list(("a", "b", "c")) == (
            "a", "b", "c", "ab", "ac", "bc", "abc")

    def test_values_on_explicit_rep(self):
        fp = fingerprint(f2_rep(), ("x", "y", "xy"))
        assert fp.values == pytest.approx((6.25, 4.0, 6.25))

    def test_peripheral_values_on_bundled_document(self):
        with importlib.resources.as_file(DATA / "genus2_handlebody.json") as p:
            _, inclusion = load_document(str(p))
        fp = peripheral_fingerprint(f2_rep(), inclusion)
        assert fp.values == pytest.approx((6.25, 4.0, 6.25, 6.25))

    def test_distance_zero_on_self(self):
        fp = fingerprint(f2_rep(), ("x", "y", "xy"))
        assert fp.distance(fp) == 0.0

    def test_distance_requires_same_words(self):
        rep = f2_rep()
        with pytest.raises(PleatbendError):
            fingerprint(rep, ("x",)).distance(fingerprint(rep, ("y",)))

    def test_overflowing_trace_is_singular(self):
        # x is unimodular, but its trace 1e160 squares past the float
        # range: an inf tr^2 would make every distance NaN
        rep = Representation(generators=("x", "y"),
                             images=(MoebiusMap(1e160, 0, 0, 1e-160),
                                     f2_rep().images[1]))
        with pytest.raises(SingularMatrix, match="word 'x' is not finite"):
            fingerprint(rep, ("y", "x"))

    def test_distance_scales_large_values(self):
        a = CharacterFingerprint(words=("w",), values=(1e6 + 0j,))
        b = CharacterFingerprint(words=("w",), values=(1e6 + 1e-3 + 0j,))
        assert a.distance(b) < 1e-9

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), conj=well_conditioned_maps())
    def test_conjugation_invariance(self, seed, conj):
        rng = np.random.default_rng(seed)
        rep = random_representation(rng)
        words = standard_word_list(rep.generators)
        d = fingerprint(rep, words).distance(
            fingerprint(rep.conjugated(conj), words))
        assert d < 1e-8


class TestTraceIdentities:
    @settings(deadline=None, max_examples=60)
    @given(a=well_conditioned_maps(), b=well_conditioned_maps())
    def test_product_plus_inverse(self, a, b):
        # tr(AB) + tr(AB^-1) = tr A tr B for determinant-1 lifts
        lhs = (a @ b).trace + (a @ b.inverse()).trace
        rhs = a.trace * b.trace
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))

    def test_trace_triple_constructor(self):
        x, y, z = 3.2, 3.7 + 0.4j, 4.1 - 0.2j
        rep = rep_from_trace_triple(x, y, z)
        assert abs(evaluate_word(rep, "x").trace - x) < 1e-12
        assert abs(evaluate_word(rep, "y").trace - y) < 1e-12
        assert abs(evaluate_word(rep, "xy").trace - z) < 1e-12

    def test_commutator_trace_polynomial(self):
        x, y, z = 2.4 + 0.3j, 3.1, 2.9 - 0.5j
        rep = rep_from_trace_triple(x, y, z)
        actual = evaluate_word(rep, "xyXY").trace
        assert abs(actual - commutator_trace(x, y, z)) < 1e-10


class TestFenchelNielsen:
    LENGTHS = (2.0, 1.7, 2.3)
    TWISTS = (0.3, 0.1, 0.2)

    def test_cuff_lengths_realized(self):
        pd = standard_decomposition(2)
        rep = fenchel_nielsen_rep(pd, self.LENGTHS, self.TWISTS)
        for cuff, lam in zip(pd.cuffs, self.LENGTHS):
            got = complex_length(evaluate_word(rep, cuff.word))
            assert abs(got - lam) < 1e-8

    def test_complex_lengths_realized(self):
        pd = standard_decomposition(2)
        lengths = (2.0 + 0.4j, 1.7 - 0.2j, 2.3 + 0.1j)
        rep = fenchel_nielsen_rep(pd, lengths, self.TWISTS)
        for cuff, lam in zip(pd.cuffs, lengths):
            got = complex_length(evaluate_word(rep, cuff.word))
            assert abs(got - lam) < 1e-8

    def test_surface_relator_holds(self):
        pd = standard_decomposition(2)
        rep = fenchel_nielsen_rep(pd, self.LENGTHS, self.TWISTS)
        assert rep.relator_residual() < 1e-9

    def test_real_data_gives_real_matrices(self):
        pd = standard_decomposition(2)
        rep = fenchel_nielsen_rep(pd, self.LENGTHS, self.TWISTS)
        worst = max(abs(v.imag) for m in rep.images
                    for v in (m.a, m.b, m.c, m.d))
        assert worst < 1e-9

    def test_imaginary_twist_fixes_cuff_traces(self):
        # adding pure bending to the twists must not move any cuff trace
        pd = standard_decomposition(2)
        base = fenchel_nielsen_rep(pd, self.LENGTHS, self.TWISTS)
        bent = fenchel_nielsen_rep(
            pd, self.LENGTHS, tuple(t + 0.37j for t in self.TWISTS))
        words = tuple(c.word for c in pd.cuffs)
        d = fingerprint(base, words).distance(fingerprint(bent, words))
        assert d < 1e-9

    def test_twist_moves_transverse_curves(self):
        pd = standard_decomposition(2)
        base = fenchel_nielsen_rep(pd, self.LENGTHS, self.TWISTS)
        moved = fenchel_nielsen_rep(
            pd, self.LENGTHS, (self.TWISTS[0] + 0.5,) + self.TWISTS[1:])
        assert abs(evaluate_word(base, "b1").trace ** 2
                   - evaluate_word(moved, "b1").trace ** 2) > 1e-3

    def test_rejects_decomposition_without_recipe(self):
        pd = standard_decomposition(2)
        import dataclasses
        bare = dataclasses.replace(pd, fenchel_nielsen=None)
        with pytest.raises(InvalidDecomposition):
            fenchel_nielsen_rep(bare, self.LENGTHS, self.TWISTS)

    def test_inclusion_relator_residual(self):
        with importlib.resources.as_file(DATA / "genus2_handlebody.json") as p:
            pd, inclusion = load_document(str(p))
        res = inclusion_relator_residual(f2_rep(), pd, inclusion)
        assert res < 1e-10


class TestPaths:
    def path(self, steps):
        pd = standard_decomposition(2)
        return path_from_parameters(
            pd,
            lambda t: (2.0, 1.7, 2.3),
            lambda t: (0.3 + 0.5j * t, 0.1, 0.2),
            steps=steps,
        )

    def test_continuity_shrinks_under_refinement(self):
        coarse = self.path(16).continuity()
        fine = self.path(32).continuity()
        assert fine < coarse
        assert fine < 0.7 * coarse

    def test_index_of(self):
        path = self.path(8)
        assert path.index_of(0.5) == 4
        with pytest.raises(PleatbendError):
            path.index_of(0.31)

    def test_index_of_nan(self):
        # every distance to NaN is NaN, which no tolerance check may pass
        with pytest.raises(PleatbendError,
                           match="t=nan is not a sample time of this path"):
            self.path(8).index_of(math.nan)

    def test_reversed(self):
        path = self.path(8)
        rev = path.reversed()
        assert rev.ts == path.ts
        assert rev.generators == path.generators
        assert rev.matrices[..., ::-1].tobytes() == path.matrices.tobytes()

    def test_validation(self):
        rep = f2_rep()
        with pytest.raises(PleatbendError):
            path_from_reps([rep], ts=(0.0,))
        with pytest.raises(PleatbendError):
            path_from_reps([rep, rep], ts=(0.0, 0.0))
        with pytest.raises(PleatbendError):
            path_from_reps([rep], ts=(0.0, 1.0))
        with pytest.raises(PleatbendError,
                           match="a path needs at least two samples"):
            path_from_reps([])
        with pytest.raises(PleatbendError, match="one representation per"):
            RepresentationPath(ts=(0.0, 1.0), generators=rep.generators,
                               matrices=np.zeros((2, 2, 2, 1), complex))

    def test_generators_refused(self):
        # a path without generators would save a file that no load reads,
        # and one naming a generator twice a file that loads with one
        with pytest.raises(PleatbendError,
                           match="a path needs at least one generator"):
            RepresentationPath(ts=(0.0, 1.0), generators=(),
                               matrices=np.zeros((2, 2, 0, 2), complex))
        with pytest.raises(PleatbendError,
                           match="generator 'b' is listed twice"):
            RepresentationPath(ts=(0.0, 1.0), generators=("b", "a", "b"),
                               matrices=np.zeros((2, 2, 3, 2), complex))

    def test_matrices_not_numbers_refused(self):
        # save_path spells the entries as json spells numbers
        matrices = np.ones((2, 2, 1, 2), dtype=object)
        with pytest.raises(PleatbendError,
                           match="matrices must hold numbers, not object"):
            RepresentationPath(ts=(0.0, 1.0), generators=("x",),
                               matrices=matrices)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time(self, bad):
        # every comparison with NaN is False, so the ordering check
        # alone lets a NaN time through
        rep = f2_rep()
        for k in range(3):
            ts = [0.0, 0.5, 1.0]
            ts[k] = bad
            with pytest.raises(PleatbendError, match=f"sample {k} "):
                path_from_reps([rep] * 3, ts=ts)


def bundled_rank_inputs():
    """The bundled handlebody representation and inclusion."""
    with importlib.resources.as_file(DATA / "genus2_handlebody.json") as p:
        _, inclusion = load_document(str(p))
    with importlib.resources.as_file(DATA / "handlebody_rep.json") as p:
        rep = load_rep(str(p))
    return rep, inclusion


class TestJacobianRank:
    def test_bundled_rep_has_full_rank(self):
        rep, inclusion = bundled_rank_inputs()
        rank, sv = jacobian_rank(rep, inclusion)
        assert rank == 3
        assert sv[2] / sv[3] > 1e6
        assert sv[2] / sv[0] > EPS_RANK

    def test_reducible_rep_refused(self):
        _, inclusion = bundled_rank_inputs()
        with pytest.raises(ReducibleRepresentation):
            jacobian_rank(f2_rep(), inclusion)

    def test_one_svd(self, monkeypatch):
        # the exact Jacobian needs no projection off the conjugation
        # tangents, so the singular values of J are the only SVD
        rep, inclusion = bundled_rank_inputs()
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        jacobian_rank(rep, inclusion)
        assert calls == [(4, 6)]

    def test_peripheral_words_rewritten_once(self, monkeypatch):
        rep, inclusion = bundled_rank_inputs()
        calls = []
        include_word = BoundaryComponent.include_word

        def counting_include_word(comp, word):
            calls.append(word)
            return include_word(comp, word)

        monkeypatch.setattr(BoundaryComponent, "include_word",
                            counting_include_word)
        for _ in range(3):
            jacobian_rank(rep, inclusion)
            peripheral_fingerprint(rep, inclusion)
        assert calls == list(inclusion.components[0].peripheral_words)

    def test_no_step_parameter(self):
        # the derivative is exact; there is no difference step to choose
        assert "h" not in inspect.signature(jacobian_rank).parameters

    def test_unknown_letter_message(self):
        rep, _ = bundled_rank_inputs()
        comp = BoundaryComponent(surface_generators=("a1", "a2"),
                                 generator_words=("x", "yz"),
                                 peripheral_words=("a1", "a2"))
        inclusion = BoundaryInclusion(generators=("x", "y"), relators=(),
                                      components=(comp,))
        with pytest.raises(UnknownLetter) as want:
            evaluate_word(rep, "yz")
        with pytest.raises(UnknownLetter) as got:
            jacobian_rank(rep, inclusion)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "no image for generator 'z'"


def _reducible_or_error(test, rep, tol):
    try:
        return test(rep, tol)
    except PleatbendError as exc:
        return type(exc), str(exc)


class TestReducibilityOracle:
    """_common_fixed_point_tol tests each image for the identity once;
    the seed body tested it by its distance to the identity, below tol,
    and again by classify."""

    def _check(self, rep):
        for tol in (1e-10, 1e-8, 1e-4):
            assert (_reducible_or_error(_common_fixed_point_tol, rep, tol)
                    == _reducible_or_error(seed_common_fixed_point_tol, rep,
                                           tol))

    def test_random_representations(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            self._check(random_representation(rng))

    def test_images_near_the_identity(self):
        # parabolic images (1, d; 0, 1) and (1, 0; d, 1) at distance d
        # from the identity, on both sides of 1e-10, 1e-9 and 1e-8
        distances = [f * 10.0 ** k for k in (-10, -9, -8) for f in (0.5, 2.0)]
        near = [MoebiusMap(1, d, 0, 1) for d in distances] \
            + [MoebiusMap(1, 0, d, 1) for d in distances]
        ident = MoebiusMap.identity()
        for bound in (1e-10, 1e-9, 1e-8):
            seen = [m.distance_to(ident) < bound for m in near]
            assert any(seen) and not all(seen)
        # and every pair of the others: loxodromic maps fixing infinity
        # and 0, a parabolic and an elliptic map sharing one of those
        # points, an elliptic map sharing none, maps in the parabolic
        # window |tr^2 - 4| < EPS_CLASS but past the identity bound, and
        # a map whose tr^2 is not finite
        rotation = MoebiusMap.diagonal(cmath.exp(0.4j))
        window = [MoebiusMap(1 + delta, 1, 0, 1 / (1 + delta))
                  for delta in (1e-5, 1e-6)]
        others = [MoebiusMap(2, 1, 0, 0.5), MoebiusMap(2, 0, 1, 0.5),
                  MoebiusMap(1.5, 0.3j, -0.2, 0.7 + 0.1j),
                  MoebiusMap(1, 1, 0, 1), rotation,
                  rotation.conjugate_by(MoebiusMap(1, 1, 1, 2)), *window,
                  MoebiusMap(math.nan, 0, 0, 1)]
        assert [classify(m) for m in others[3:-1]] == [
            IsometryClass.PARABOLIC, IsometryClass.ELLIPTIC,
            IsometryClass.ELLIPTIC, IsometryClass.PARABOLIC,
            IsometryClass.PARABOLIC]
        for m in window:
            assert abs(trace_squared(m) - 4) < EPS_CLASS
            assert m.distance_to(ident) > 1e-4
        for m in near + others:
            for other in others + near:
                self._check(Representation(("x", "y"), (m, other)))
                self._check(Representation(("x", "y"), (other, m)))


class TestJacobianSeedOracle:
    """jacobian_rank plans each word once per generators and words and
    tests each generator once; its Jacobian, ranks and singular values
    are the seed's bit for bit."""

    # repeated letters, both signs of one generator in one word, and
    # the empty word
    PLANTED = ("xxY", "XyxY", "yXXyx", "")

    def test_random_representations(self):
        _, inclusion = bundled_rank_inputs()
        words = inclusion.peripheral_words + self.PLANTED
        rng = np.random.default_rng(13)
        for _ in range(2000):
            rep = random_representation(rng, generators=inclusion.generators)
            J = _squared_trace_jacobian(rep, words)
            want = seed_squared_trace_jacobian(rep, words)
            assert J.shape == want.shape == (len(words), 6)
            assert (J == want).all()
            rank, sv = jacobian_rank(rep, inclusion)
            want_rank, want_sv = seed_jacobian_rank(rep, inclusion)
            assert rank == want_rank
            assert sv.tobytes() == want_sv.tobytes()

    def test_bundled_representation(self):
        rep, inclusion = bundled_rank_inputs()
        words = inclusion.peripheral_words + self.PLANTED
        J = _squared_trace_jacobian(rep, words)
        assert (J == seed_squared_trace_jacobian(rep, words)).all()
        rank, sv = jacobian_rank(rep, inclusion)
        want_rank, want_sv = seed_jacobian_rank(rep, inclusion)
        assert rank == want_rank == 3
        assert sv.tobytes() == want_sv.tobytes()

    def test_unknown_letters_in_word_order(self):
        # the first word with a letter that is not a generator raises,
        # naming the first such letter, whether or not its plan is
        # cached
        rep, _ = bundled_rank_inputs()
        for words in (["xy", "xzw", "q"], ["xY", "Wz"], ["x", "x!"]):
            for _ in range(2):
                with pytest.raises(PleatbendError) as want:
                    seed_squared_trace_jacobian(rep, words)
                with pytest.raises(PleatbendError) as got:
                    _squared_trace_jacobian(rep, words)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)


def _mp_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mp_central_difference_jacobian(rep, words, digits=50, h="1e-20"):
    """Unprojected Jacobian of the squared traces by a central difference
    at the given working precision, inverses taken as adjugates (as
    _squared_trace_jacobian does for determinant-1 images)."""
    with mpmath.workdps(digits):
        step = mpmath.mpf(h)
        images = {g: tuple(mpmath.mpc(z) for z in (m.a, m.b, m.c, m.d))
                  for g, m in zip(rep.generators, rep.images)}

        def tau(imgs):
            out = []
            for w in words:
                prod = (1, 0, 0, 1)
                for base, inv in parse_word(w):
                    a, b, c, d = imgs[base]
                    letter = (d, -b, -c, a) if inv else (a, b, c, d)
                    prod = _mp_mul(prod, letter)
                out.append((prod[0] + prod[3]) ** 2)
            return out

        flows = (lambda e: (mpmath.exp(e), 0, 0, mpmath.exp(-e)),
                 lambda e: (1, e, 0, 1),
                 lambda e: (1, 0, e, 1))
        cols = []
        for g in rep.generators:
            for flow in flows:
                plus = tau({**images, g: _mp_mul(flow(step), images[g])})
                minus = tau({**images, g: _mp_mul(flow(-step), images[g])})
                cols.append([complex((p - m) / (2 * step))
                             for p, m in zip(plus, minus)])
    return np.array(cols).T


class TestJacobianOracle:
    """The exact Jacobian against the central differences it replaced
    and against a 50-digit central difference."""

    def test_ranks_match_central_differences(self):
        _, inclusion = bundled_rank_inputs()
        rng = np.random.default_rng(11)
        for _ in range(200):
            rep = random_representation(rng, generators=inclusion.generators)
            rank, sv = jacobian_rank(rep, inclusion)
            want_rank, want_sv = central_difference_jacobian_rank(rep,
                                                                  inclusion)
            assert rank == want_rank == 3
            np.testing.assert_allclose(sv[:rank], want_sv[:rank], rtol=1e-8,
                                       atol=0)

    def test_jacobian_vanishes_on_conjugation(self):
        # squared traces are constant on conjugacy classes, so the exact
        # Jacobian kills the conjugation tangents up to rounding; this
        # is why jacobian_rank does not project them out (measured worst
        # 1.2e-16; J with two columns swapped reads 7e-3 and more)
        rep, inclusion = bundled_rank_inputs()
        words = inclusion.peripheral_words + ("xxY", "XyxY", "yXXyx")
        rng = np.random.default_rng(12)
        reps = [rep] + [random_representation(
            rng, generators=inclusion.generators) for _ in range(200)]
        for r in reps:
            J = _squared_trace_jacobian(r, words)
            C = conjugation_tangents(r)
            assert J.shape == (7, 6) and C.shape == (6, 3)
            assert (np.linalg.norm(J @ C)
                    <= 1e-13 * np.linalg.norm(J) * np.linalg.norm(C))

    @pytest.mark.parametrize("source", ["bundled", 0, 1, 2, 3])
    def test_exact_against_mpmath(self, source):
        rep, inclusion = bundled_rank_inputs()
        if source != "bundled":
            rng = np.random.default_rng(source)
            rep = random_representation(rng, generators=inclusion.generators)
        words = [comp.include_word(w) for comp in inclusion.components
                 for w in comp.peripheral_words]
        # repeated letters, both signs of one generator in one word, and
        # the empty word
        words += ["xxY", "XyxY", "yXXyx", ""]
        J = _squared_trace_jacobian(rep, words)
        want = mp_central_difference_jacobian(rep, words)
        assert J.shape == want.shape == (len(words), 6)
        for got_row, want_row in zip(J, want):
            scale = np.max(np.abs(want_row))
            assert np.max(np.abs(got_row - want_row)) <= 1e-12 * scale
        assert not J[-1].any()


class TestConjugacyResidual:
    def test_conjugate_pair(self):
        rep = rep_from_trace_triple(3.0, 3.5 + 0.2j, 4.0)
        g = MoebiusMap(1.3, 0.4 - 0.2j, 0.1j, 0.9)
        assert conjugacy_residual(rep, rep.conjugated(g)) < 1e-10

    def test_distinct_pair(self):
        a = rep_from_trace_triple(3.0, 3.5, 4.0)
        b = rep_from_trace_triple(3.1, 3.5, 4.0)
        assert conjugacy_residual(a, b) > 1e-4

    def test_generator_sets_must_match(self):
        a = rep_from_trace_triple(3.0, 3.5, 4.0)
        b = rep_from_trace_triple(3.0, 3.5, 4.0, generators=("u", "v"))
        with pytest.raises(PleatbendError):
            conjugacy_residual(a, b)


# numbers whose spelling json fixes: signed zero, the smallest subnormal,
# the edge of overflow, NaN and the infinities
SPELLED = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf,
           -math.inf]


@st.composite
def saved_paths(draw):
    """Paths as the constructor takes them: names unsorted, non-ASCII or
    holding '"' and '%', with or without relators, times int or float,
    some long enough to be spelled in more than one chunk, entries
    cycling through a drawn pool of floats."""
    names = draw(st.lists(st.text(min_size=1, max_size=3)
                          | st.sampled_from(['"', 'q"%s', "\u00e9", "b"]),
                          min_size=1, max_size=4, unique=True))
    relators = draw(st.lists(st.text(max_size=4), max_size=2))
    ts = draw(st.integers(2, 150).map(lambda n: tuple(range(-1, n - 1)))
              | st.lists(st.integers(-10**6, 10**6) | st.floats(-1e300, 1e300),
                         min_size=2, max_size=6, unique=True)
              .map(lambda t: tuple(sorted(t))))
    pool = draw(st.lists(st.floats() | st.sampled_from(SPELLED),
                         min_size=1, max_size=12))
    shape = (2, 2, len(names), len(ts))
    parts = np.resize(np.array(pool), shape + (2,))
    if draw(st.booleans()):
        matrices = parts[..., 0]
    else:
        matrices = np.empty(shape, complex)
        matrices.real, matrices.imag = parts[..., 0], parts[..., 1]
    return RepresentationPath(ts=ts, generators=tuple(names),
                              matrices=matrices, relators=tuple(relators))


def assert_saved_bytes(directory, path):
    """save_path writes json.dumps(path_to_dict(path), indent=2,
    sort_keys=True) and a newline."""
    target = directory / "path.json"
    save_path(str(target), path)
    want = json.dumps(path_to_dict(path), indent=2, sort_keys=True)
    assert target.read_bytes() == (want + "\n").encode()


def matrix(d: dict, k: int, generator: str) -> list:
    """The entries of generator at sample k of a path document."""
    return d["samples"][k]["matrices"][generator]


class TestSerialization:
    def test_rep_round_trip(self):
        rep = rep_from_trace_triple(3.2, 3.7 + 0.4j, 4.1 - 0.2j)
        back = rep_from_dict(rep_to_dict(rep))
        assert back.generators == rep.generators
        assert conjugacy_residual(rep, back) < 1e-14

    def test_matrix_schema(self):
        d = rep_to_dict(f2_rep())
        assert set(d["matrices"]) == {"x", "y"}
        for entry in d["matrices"].values():
            assert len(entry) == 4
            assert all(len(pair) == 2 for pair in entry)

    def test_unsorted_generator_order_preserved(self):
        rep = Representation(generators=("y", "x"),
                             images=f2_rep().images[::-1])
        d = rep_to_dict(rep)
        assert d["generators"] == ["y", "x"]
        assert rep_from_dict(d).generators == ("y", "x")

    def test_minimal_dict_sorts_generators(self):
        d = {"matrices": {"y": [[1, 0], [1, 0], [0, 0], [1, 0]],
                          "x": [[2, 0], [0, 0], [0, 0], [0.5, 0]]}}
        rep = rep_from_dict(d)
        assert rep.generators == ("x", "y")

    @pytest.mark.parametrize("d, named", [
        ({"matrices": {"x": [[1, 0]]}},
         "file['matrices']['x'] is malformed: [[1, 0]]"),
        ({"samples": []}, "file has no 'matrices'")])
    def test_malformed_file_names_its_root(self, d, named):
        # a representation file has no samples to number
        with pytest.raises(ValueError) as got:
            rep_from_dict(d)
        assert str(got.value) == named

    @pytest.mark.parametrize("edit, message", [
        (lambda d: matrix(d, 1, "b1").pop(), "samples[1]['matrices']['b1'] "
         "is malformed: [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"),
        (lambda d: matrix(d, 1, "b1").append([0, 0]),
         "samples[1]['matrices']['b1'] is malformed: [[1.0, 0.0], "
         "[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0, 0]]"),
        (lambda d: d["samples"][1]["matrices"].update(b1=1.0),
         "samples[1]['matrices']['b1'] is malformed: 1.0"),
        (lambda d: matrix(d, 2, "a2")[3].pop(),
         "samples[2]['matrices']['a2'][3] is malformed: [1.0]"),
        (lambda d: matrix(d, 2, "a2")[0].append(0.0),
         "samples[2]['matrices']['a2'][0] is malformed: [1.0, 0.0, 0.0]"),
        (lambda d: matrix(d, 1, "a1").__setitem__(1, 0.0),
         "samples[1]['matrices']['a1'][1] is malformed: 0.0"),
        (lambda d: matrix(d, 1, "b2")[2].__setitem__(1, [0.0]),
         "samples[1]['matrices']['b2'][2][1] is malformed: [0.0]"),
        (lambda d: matrix(d, 2, "a1")[0].__setitem__(0, True),
         "samples[2]['matrices']['a1'][0][0] is malformed: True"),
        (lambda d: matrix(d, 1, "b1").__setitem__(2, True),
         "samples[1]['matrices']['b1'][2] is malformed: True"),
        (lambda d: d["samples"][1].update(t=True),
         "samples[1]['t'] is malformed: True"),
        (lambda d: matrix(d, 1, "a1")[3].__setitem__(1, "0"),
         "samples[1]['matrices']['a1'][3][1] is malformed: '0'"),
        (lambda d: matrix(d, 2, "b2")[0].__setitem__(1, None),
         "samples[2]['matrices']['b2'][0][1] is malformed: None"),
        (lambda d: matrix(d, 1, "a2")[1].__setitem__(0, 10 ** 400),
         "samples hold no float numbers of shape (12, 4, 2)"),
        (lambda d: d.update(samples=[]),
         "samples hold no float numbers of shape (0, 4, 2)")],
        ids=["three-pairs", "five-pairs", "matrix-number", "short-pair",
             "long-pair", "pair-number", "nested-number", "true-entry",
             "true-pair", "true-t", "string", "null", "huge-int", "empty"])
    def test_malformed_path_refused(self, edit, message):
        # the loader walks the nested lists once; each refusal names the
        # first malformed part, as the loader that let numpy read the
        # lists and then looked for booleans named it
        pd = standard_decomposition(2)
        d = json.loads(json.dumps(path_to_dict(path_from_parameters(
            pd, lambda t: (2.0, 1.7, 2.3),
            lambda t: (0.3, 0.1 + 0.2j * t, 0.2), steps=2))))
        for sample in d["samples"][1:]:     # entries the messages spell
            sample["matrices"] = {g: [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                      [1.0, 0.0]] for g in pd.generators}
        edit(d)
        with pytest.raises(ValueError) as got:
            path_from_dict(d)
        assert str(got.value) == message

    def test_file_round_trip(self, tmp_path):
        from pleatbend import save_rep
        rep = rep_from_trace_triple(3.0, 3.3, 3.9 + 0.1j)
        target = tmp_path / "rep.json"
        save_rep(str(target), rep)
        data = json.loads(target.read_text())
        assert "matrices" in data
        assert conjugacy_residual(rep, load_rep(str(target))) < 1e-14

    def test_path_round_trip(self):
        pd = standard_decomposition(2)
        path = path_from_parameters(
            pd, lambda t: (2.0, 1.7, 2.3),
            lambda t: (0.3, 0.1 + 0.2j * t, 0.2), steps=4)
        d = path_to_dict(path)
        assert len(d["samples"]) == 5
        assert {"t", "matrices"} <= set(d["samples"][0])
        back = path_from_dict(d, pd=pd)
        assert back.ts == path.ts
        # keys a path does not read, such as "recipe", are ignored
        assert path_from_dict({**d, "recipe": "quake-bend"}).ts == path.ts
        assert back.continuity() == pytest.approx(path.continuity())
        worst = max(m0.distance_to(m1)
                    for r0, r1 in zip(path.reps, back.reps)
                    for m0, m1 in zip(r0.images, r1.images))
        assert worst < 1e-10

    @given(path=saved_paths())
    @settings(max_examples=80, deadline=None)
    def test_save_path_writes_the_bytes_of_json(self, tmp_path_factory, path):
        assert_saved_bytes(tmp_path_factory.mktemp("save"), path)

    @pytest.mark.parametrize("genus", [2, 3])
    def test_save_path_bytes_of_glued_path(self, tmp_path, genus):
        # glued paths longer than one spelling chunk
        pd = standard_decomposition(genus)
        n = len(pd.cuffs)
        path = path_from_parameters(
            pd, lambda t: tuple(1.7 + 0.1 * i for i in range(n)),
            lambda t: (0.3 + 0.5j * t,) + (0.1,) * (n - 1), steps=70)
        assert_saved_bytes(tmp_path, path)

    def test_bundled_rep_files_load(self):
        for name in ("f2_rep.json", "handlebody_rep.json"):
            with importlib.resources.as_file(DATA / name) as p:
                rep = load_rep(str(p))
            assert rep.generators == ("x", "y")
