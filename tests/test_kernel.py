"""The array kernel against the scalar arithmetic it replaces.

MoebiusArray repeats MoebiusMap's products, inverses and normalization
on float arrays, and sample_images evaluates a path's words and slot
commutators with it.  Every product, inverse and normalization must be
within 8 eps of each entry's modulus of the scalar one, the word images
and commutator traces must equal evaluate_word's (entries_of), and a
sample the kernel cannot evaluate must raise SampleEvaluationFailure.
The geometry pass computes every Schlafli term from those arrays with
numpy's arithmetic: each term at every sample and pattern is held to
the accuracy gate against a 50-digit oracle (_mp_oracle), next to the
scalar pipeline as it was (_seed_kernel.seed_term_series), and the
failures it raises must be the scalar pipeline's; its endpoint
tracking, closed form, must be the loop it replaced (seed_track).  The
last class checks vol_gamma against the benchmark's recorded
references, which pin the rounding of the complex products and
quotients the kernel keeps.
"""

import ast
import cmath
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pleatbend import (DegenerateConfiguration, DegenerateTriangle,
                       MoebiusMap, NotAdapted, OrientationTrackingFailure,
                       PleatbendError, Representation,
                       SampleEvaluationFailure, SingularMatrix,
                       TruncationConvention, UnknownLetter, build_lamination,
                       enumerate_orientations, integrate_volume_change,
                       path_from_parameters, path_from_reps,
                       shared_endpoint_check, standard_decomposition,
                       vol_gamma)
from pleatbend import pleated, representation, volume
from pleatbend.moebius import (KINDS, RESCALE_LIMIT, IsometryClass,
                               MoebiusArray, _unimodular, complex_length,
                               trace_squared)
from pleatbend.pleated import sample_images
from pleatbend.representation import (evaluate_word, path_from_dict,
                                      path_to_dict)
from pleatbend.topology import (CuffEnd, Pants, decomposition_from_dict,
                                decomposition_to_dict)

from _mp_oracle import TERM_KINDS, gate_bound, mp_term_series, term_errors
from _seed_kernel import (SeedSample, entries_of, raw_entries,
                          seed_resolve_endpoints, seed_sample_images,
                          seed_start_endpoints, seed_term_series, seed_track,
                          steep, steep_entries)
from test_volume import bend_path, genus2_loop, genus3_path

PAIRS = ((0, 1), (1, 2), (2, 0))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _part(scale):
    return st.floats(-scale, scale, allow_nan=False, allow_infinity=False)


def _complex(scale):
    return st.builds(complex, _part(scale), _part(scale))


# entries as MoebiusMap stores them: complex, from tiny to steep
tiny = st.builds(lambda z, e: z * 10.0 ** e, _complex(1.0),
                 st.sampled_from([-20, -45, -52, -60]))
complex_entries = st.tuples(*[st.one_of(_complex(4.0), _complex(3e3),
                                        tiny)] * 4)
# (a, b, c, d) with a d - b c = -(a d - b c) of another draw: the
# determinant's real part is negative as often as positive
swapped_entries = complex_entries.map(lambda e: (e[1], e[0], e[3], e[2]))
any_entries = st.one_of(complex_entries, swapped_entries,
                        steep_entries.map(lambda e: tuple(map(complex, e))))


def scalar(step):
    """step(), or None when the scalar arithmetic raises there."""
    try:
        return step()
    except (SingularMatrix, OverflowError):
        return None


EPS = np.finfo(float).eps


def same_bits(got, want) -> bool:
    """== on the bits, so a NaN matches a NaN and -0.0 does not match 0.0."""
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


def assert_close(got: MoebiusArray, want: list):
    """ok exactly where the scalar step passed (want not None), and there
    every entry within 8 eps of its modulus of the scalar one.  The
    kernel and MoebiusMap differ only in the square root of the
    determinant, np.sqrt against cmath.sqrt, each within two units in
    the last place, and in the rounding of the entries divided by it."""
    assert got.ok.tolist() == [w is not None for w in want]
    for e, w in zip(array_entries(got), want):
        if w is not None:
            z = np.array([w.a, w.b, w.c, w.d])
            assert (np.abs(e - z) <= 8 * EPS * np.abs(z)).all(), (e, z)


def array_of(maps) -> MoebiusArray:
    """MoebiusMaps as a MoebiusArray, (2, 2, n), entries as they are."""
    z = np.array([(m.a, m.b, m.c, m.d) for m in maps],
                 dtype=complex).T.reshape(2, 2, -1)
    return MoebiusArray(z.real.copy(), z.imag.copy(),
                        np.ones(z.shape[2], dtype=bool))


def array_entries(m: MoebiusArray) -> np.ndarray:
    """The entries of a MoebiusArray (2, 2, n) as complex, (n, 4): a, b,
    c, d per sample."""
    z = np.empty((m.re.shape[2], 4), dtype=complex)
    z.real = m.re.reshape(4, -1).T
    z.imag = m.im.reshape(4, -1).T
    return z


def maps_of(m: MoebiusArray) -> list:
    """The maps of a MoebiusArray as MoebiusMaps, None where not ok."""
    return [MoebiusMap._raw(*e) if ok else None
            for e, ok in zip(array_entries(m).tolist(), m.ok.tolist())]


def stored(entries):
    """MoebiusMap(*entries), or None when the constructor raises."""
    return scalar(lambda: MoebiusMap(*entries))


class TestMoebiusArrayOracle:
    @given(st.lists(st.tuples(any_entries, any_entries), min_size=1,
                    max_size=6))
    @settings(max_examples=300)
    @example([(steep(800.0, 0.5), steep(1e4, -2.0))])
    def test_products_and_inverses(self, pairs):
        maps = [(stored(x), stored(y)) for x, y in pairs]
        maps = [(x, y) for x, y in maps if x is not None and y is not None]
        if not maps:
            return
        xs, ys = array_of([x for x, _ in maps]), array_of([y for _, y in maps])
        assert_close(xs.inverse(), [scalar(x.inverse) for x, _ in maps])
        # the commutator's products one by one, each against the scalar
        # product of the same entries
        comm = xs
        for right in (ys, xs.inverse(), ys.inverse()):
            want = [scalar(lambda: x @ y) if x is not None and y is not None
                    else None for x, y in zip(maps_of(comm),
                                              maps_of(right))]
            comm = comm @ right
            assert_close(comm, want)
        # tr^2 is the scalar t * t of the same entries, bit for bit
        tr, ti = comm.trace_squared()
        for k, w in enumerate(maps_of(comm)):
            t2 = scalar(lambda: trace_squared(w)) if w is not None else None
            if t2 is not None:
                assert same_bits([tr[k], ti[k]], [t2.real, t2.imag])

    @given(st.lists(st.one_of(any_entries, raw_entries.map(
        lambda e: tuple(map(complex, e)))), min_size=1, max_size=6))
    @settings(max_examples=300)
    # determinant -1: the square root takes its imaginary branch
    @example([(0j, 1 + 0j, 1 + 0j, 0j), (0j, 1 - 0j, -1j, 1j)])
    # a determinant of 1e-120, below the 1e-100 guard
    @example([(1e-60 + 0j, 0j, 0j, 1e-60 + 0j)])
    # |ad| + |bc| just above and at the rescale limit
    @example([(1e3 + 0j, 0j, 1j, 1e3 + 1e-9j),
              (complex(RESCALE_LIMIT), 0j, 0j, 1 + 0j)])
    def test_normalization(self, entries):
        z = np.array(entries, dtype=complex).T.reshape(2, 2, -1)
        got = _unimodular(z.real.copy(), z.imag.copy(),
                          np.ones(len(entries), dtype=bool))
        assert_close(got, [scalar(lambda: MoebiusMap._from_unimodular(*e))
                           for e in entries])

    def test_identity_fold(self):
        maps = [MoebiusMap(2, 1j, 0.5, 1), MoebiusMap(*steep(900.0, 1.0))]
        assert_close(MoebiusArray.identity(2) @ array_of(maps),
                     [MoebiusMap.identity() @ m for m in maps])


# distances and gaps with ties, NaN and inf, and gaps at which every
# step, none or some fail
_distances = st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0, math.inf,
                              math.nan])
_gaps = st.sampled_from([0.0, 0.5, 1.0, 4.0, 100.0, math.nan])


@st.composite
def tracking_tables(draw):
    """(d, gap, label): a distance table (2, 2, cuffs, n) and gaps
    (cuffs, n) for 1 or 6 cuffs, and a label index, or None for a start
    selection, whose distances d holds in both rows at k = 0."""
    cuffs = draw(st.sampled_from([1, 6]))
    n = draw(st.integers(1, 12))
    size = 4 * cuffs * n
    d = np.array(draw(st.lists(_distances, min_size=size, max_size=size)))
    d = d.reshape(2, 2, cuffs, n)
    gap = np.array(draw(st.lists(_gaps, min_size=cuffs * n,
                                 max_size=cuffs * n))).reshape(cuffs, n)
    d[1, :, :, 0] = d[0, :, :, 0]
    return d, gap, draw(st.sampled_from([None, 0, 1]))


class TestTrackOracle:
    """pleated._track, closed form, against the loop it replaced
    (seed_track), by == on the chain, the failures and the distance each
    failure's message names."""

    @given(tracking_tables())
    @settings(max_examples=400)
    # one cuff: a run of swaps, a tie (keep), a NaN in d2 (keep, and
    # min keeps d1), a NaN in d1 (reset), a failure, then two samples
    @example((np.array([
        [[[0.0, 1.0, 1.0, 1.0, 0.3, 0.1, math.nan, 0.1, 0.0, 0.0]],
         [[1.0, 0.5, 0.5, 0.5, 0.3, 1.0, 0.1, 1.0, 1.0, 1.0]]],
        [[[0.0, 0.1, 0.1, 0.1, 0.2, 0.2, math.nan, 1.0, 1.0, 0.0]],
         [[1.0, 0.3, 0.3, 0.3, 0.1, math.nan, 0.3, 0.3, 0.0, 1.0]]]]),
        np.array([[4.0] * 7 + [0.5, 4.0, 4.0]]), None))
    def test_track_is_the_loop(self, table):
        d, gap, label = table
        steps = d.tolist()
        if label is None:
            begin = first_state = 0
        else:
            # a label start, as _selection writes it: nearer its own
            # fixed point; the loop read NaN there and began at sample 1
            begin, first_state = 1, label
            d[..., 0] = math.inf
            d[:, label, :, 0] = 0.0
            for a in (0, 1):
                for b in (0, 1):
                    for row in steps[a][b]:
                        row[0] = math.nan
        choice, failures = seed_track(steps, gap.tolist(), first_state, begin)
        chain, failed, moved = pleated._track(d, gap, begin)
        assert chain.tolist() == [[bool(c) for c in row] for row in choice]
        assert [np.flatnonzero(row).tolist() for row in failed] \
            == [[] if f is None else [f[0]] for f in failures]
        assert [moved[j, f[0]] for j, f in enumerate(failures) if f] \
            == [f[1] for f in failures if f]


def pipeline_words(pd) -> set:
    """The words a sample of the pipeline reads."""
    words = {c.word for c in pd.cuffs}
    words |= {w for row in pd.slot_words for w in row}
    words |= {e.conjugator for pants in pd.pants for e in pants.cuff_ends}
    return words | set(pd.crossing_words.values())


def bent_genus3():
    return genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)


def with_bad_sample(path, k, image, letter="a1"):
    """path with the image of letter at sample k replaced by image."""
    rep = path.reps[k]
    images = tuple(image if g == letter else m
                   for g, m in zip(rep.generators, rep.images))
    reps = list(path.reps)
    reps[k] = Representation(rep.generators, images, rep.relators)
    return path_from_reps(reps, ts=path.ts, pd=path.pd)


def run_pipeline(run, path):
    if run == "volume-path":
        return integrate_volume_change(path, "attracting")
    return vol_gamma(path)


RUNS = ["volume-path", "vol-gamma"]
NAN = MoebiusMap._raw(complex(math.nan, 0), 0j, 0j, 1 + 0j)


class TestSampleImagesOracle:
    @pytest.mark.parametrize("make_path", [
        lambda: genus2_loop(standard_decomposition(2), steps=16),
        lambda: genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)],
        ids=["genus2_loop", "genus3_path"])
    def test_every_sample(self, make_path):
        path = make_path()
        pd = path.pd
        words = pipeline_words(pd)
        images = sample_images(path.generators, path.matrices, pd)
        assert len(images) == len(path)
        assert set(images.words) == words
        assert images.evaluated().all()
        for k, rep in enumerate(path.reps):
            for word in images.words:
                m = images.stack.take(images.index[word])
                got = MoebiusMap._raw(*array_entries(m)[k].tolist())
                assert entries_of(got) == entries_of(evaluate_word(rep, word))
            assert set(images.rows) == set(pd.slot_words)
            for r, row in enumerate(images.rows):
                maps = [evaluate_word(rep, w) for w in row]
                want = [shared_endpoint_check(maps[i], maps[j])[1]
                        for i, j in PAIRS]
                assert [(t.real, t.imag) for t in images.traces[k, r]] == \
                    [(t.real, t.imag) for t in want]

    def test_generators_looked_up_by_name(self):
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=2)
        reps = list(path.reps[:2])
        last = reps[1]
        # one path through samples that list their generators in two
        # orders
        mixed = [reps[0], Representation(last.generators[::-1],
                                         last.images[::-1], last.relators)]
        want, got = (path_from_reps(r, pd=path.pd) for r in (reps, mixed))
        assert got.generators == want.generators
        assert got.matrices.tobytes() == want.matrices.tobytes()
        want, got = (sample_images(p.generators, p.matrices, p.pd)
                     for p in (want, got))
        assert got.words == want.words
        assert got.stack.re.tolist() == want.stack.re.tolist()
        assert got.stack.im.tolist() == want.stack.im.tolist()
        assert got.traces.tolist() == want.traces.tolist()
        lacking = reps + [
            Representation(("x", "y"), (MoebiusMap(2, 0, 0, 0.5),) * 2)]
        with pytest.raises(UnknownLetter, match="'a1' at sample 2"):
            path_from_reps(lacking, pd=path.pd)
        with pytest.raises(UnknownLetter, match="generator 'a1'"):
            sample_images(("x", "y"), path.matrices[:, :, :2], path.pd)

    @pytest.mark.parametrize("run", RUNS)
    def test_pipeline_reads_no_scalar_word(self, run, monkeypatch):
        def scalar(rep, word):
            raise AssertionError(f"scalar evaluation of {word!r}")

        assert not hasattr(pleated, "evaluate_word")
        monkeypatch.setattr(representation, "evaluate_word", scalar)
        run_pipeline(run, bent_genus3())


class TestCuffLengths:
    """_cuff_lengths takes 2 acosh(tr / 2) with np.arccosh, which must
    take cmath.acosh's branch.  At an elliptic cuff tr / 2 is real, in
    (-1, 1), and the sign of its zero imaginary part picks the sign of
    the rotation angle."""

    def test_branch(self):
        z = [complex(x, y) for x in (-3.0, -1.5, -1.0, -0.999, -0.5, 0.0,
                                     0.5, 0.999, 1.0, 1.5, 3.0)
             for y in (0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9)]
        for v, got in zip(z, np.arccosh(np.array(z)).tolist()):
            want = cmath.acosh(v)
            assert math.copysign(1.0, got.imag) == \
                math.copysign(1.0, want.imag), v
            assert abs(got - want) <= 4 * EPS * abs(want), v

    def test_elliptic_cuff(self):
        # a1 has length 0.8i, an elliptic cuff, at t = 0.5
        pd = standard_decomposition(2)
        path = path_from_parameters(
            pd, lambda t: (1.5 * (t - 0.5) ** 2 + 0.8j, 2.0 + 0.1 * t, 2.0),
            lambda t: (0.3 + 0.25j * t, 0.1 - 0.1j * t * t, 0.2 + 0.15j * t),
            steps=16)
        images = sample_images(path.generators, path.matrices, pd)
        assert images.kinds[0, 8] == KINDS.index(IsometryClass.ELLIPTIC)
        got = pleated._cuff_lengths(images)
        for j, cuff in enumerate(pd.cuffs):
            for k, rep in enumerate(path.reps):
                want = complex_length(evaluate_word(rep, cuff.word))
                assert got[j, k].real == want.real == 0.0 or \
                    abs(got[j, k].real - want.real) <= 4 * EPS * want.real
                assert abs(got[j, k].imag - want.imag) <= 4 * EPS * math.pi
                assert math.copysign(1.0, got[j, k].imag) == \
                    math.copysign(1.0, want.imag)


class TestBadSamples:
    """A sample at which the array pass meets a value the scalar
    arithmetic would raise at, or one that is not finite, raises
    SampleEvaluationFailure naming the sample and the first word it
    failed on, when the pipeline reaches that sample."""

    BAD = {
        # determinant 0: the first product is singular
        "singular": MoebiusMap._raw(1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j),
        # |a d| overflows in abs
        "overflow": MoebiusMap._raw(1.5e154 + 1.5e154j, 0j, 0j, 1e154 + 0j),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("run", RUNS)
    def test_raises_as_scalar(self, bad, run):
        # where the scalar arithmetic raises, the named guard is raised
        path = with_bad_sample(bent_genus3(), 5, self.BAD[bad])
        with pytest.raises(SampleEvaluationFailure,
                           match=r"^sample 5: word 'a1' "):
            run_pipeline(run, path)

    @pytest.mark.parametrize("run", RUNS)
    def test_nan_sample_raises(self, run):
        path = with_bad_sample(bent_genus3(), 5, NAN)
        with pytest.raises(SampleEvaluationFailure,
                           match=r"^sample 5: word 'a1' "):
            run_pipeline(run, path)

    def test_vol_gamma_first_sample(self):
        # vol_gamma reads its start endpoints off the first sample, so a
        # failure there is raised before the loxodromic check reads its
        # NaN trace
        path = with_bad_sample(bent_genus3(), 0, NAN)
        with pytest.raises(SampleEvaluationFailure) as got:
            vol_gamma(path)
        assert str(got.value) == ("sample 0: word 'a1' is singular, "
                                  "overflows or is not finite")

    def test_derivative_neighbor_before_its_selection(self):
        # schlafli_derivative raises the evaluation failure of a
        # neighbor sample before it resolves the selection at its own
        # sample, where a parabolic a1 fails; samples are numbered as
        # the path stores them
        path = with_bad_sample(bent_genus3(), 4, NAN)
        path = with_bad_sample(path, 3, MoebiusMap(1, 1, 0, 1))
        with pytest.raises(SampleEvaluationFailure) as got:
            volume.schlafli_derivative(path, path.ts[3], "attracting")
        assert str(got.value) == ("sample 4: word 'a1' is singular, "
                                  "overflows or is not finite")

    def test_derivative_names_the_stored_sample(self):
        # the three-sample pass at stored sample 7 reads samples 6, 7
        # and 8; its first column is stored sample 6
        path = with_bad_sample(bent_genus3(), 6, NAN)
        with pytest.raises(SampleEvaluationFailure) as got:
            volume.schlafli_derivative(path, path.ts[7], "attracting")
        assert str(got.value) == ("sample 6: word 'a1' is singular, "
                                  "overflows or is not finite")

    @pytest.mark.parametrize("run", RUNS)
    def test_subsample_names_the_stored_sample(self, run):
        # steps=4 reads stored samples 0, 2, 4, 6 and 8: the failure at
        # stored sample 6, the pass's fourth column, names sample 6
        path = with_bad_sample(bent_genus3(), 6, NAN)
        with pytest.raises(SampleEvaluationFailure) as got:
            if run == "volume-path":
                integrate_volume_change(path, "attracting", steps=4)
            else:
                vol_gamma(path, steps=4)
        assert str(got.value) == ("sample 6: word 'a1' is singular, "
                                  "overflows or is not finite")

    @pytest.mark.parametrize("run", RUNS)
    def test_earlier_guard_wins(self, run):
        path = with_bad_sample(bent_genus3(), 5, NAN)
        # a parabolic a1 at sample 3 fails endpoint tracking first
        path = with_bad_sample(path, 3, MoebiusMap(1, 1, 0, 1))
        with pytest.raises(NotAdapted, match="cuff 'a1' is parabolic"):
            run_pipeline(run, path)


def twist_loop():
    """The demo twist_loop.json (scripts/write_demo_inputs.py), through
    its JSON form as the CLI reads it."""
    pd = standard_decomposition(2)
    path = path_from_parameters(
        pd, lambda t: (2.0, 1.7, 2.3),
        lambda t: (0.3 + 2j * math.pi * t, 0.1, 0.2), steps=64)
    return path_from_dict(json.loads(json.dumps(path_to_dict(path))), pd=pd)


def chains(path, run):
    """Start selections of the pipeline and of the scalar one: a label
    for integrate_volume_change, the all-forward and all-back
    orientations' for vol_gamma."""
    if run in ("attracting", "repelling"):
        return [run], [run]
    oris = enumerate_orientations(path.pd)
    ends = (oris[0], oris[-1])
    images = sample_images(path.generators, path.matrices, path.pd)
    return ([volume.orientation_start_endpoints(o, images)
             for o in ends],
            [seed_start_endpoints(path, o.forward) for o in ends])


def term_series(path, run, conv):
    """The pipeline's terms, {(leaf key, pattern): (angles, lengths)},
    and its deferred failure, read through path_terms' table in the
    scalar pipeline's order: orientation 0 (chain 0 everywhere) leaf by
    leaf, then every other pattern of each leaf's support, leaf by leaf.
    pattern gives the chain of each cuff of the support."""
    pd = path.pd
    lam = build_lamination(pd)
    starts, _ = chains(path, run)
    orientations = ([tuple(0 if bit else 1 for bit in ori.forward)
                     for ori in enumerate_orientations(pd)]
                    if len(starts) == 2 else [(0,) * len(pd.cuffs)])
    table, angles, lengths, deferred = pleated.path_terms(
        sample_images(path.generators, path.matrices, pd), starts, conv)
    series = {}
    for part in ([0], range(1, len(table))):
        for t, leaf in enumerate(lam.leaves):
            for o in part:
                pattern = tuple(orientations[o][j] for j in leaf.support)
                series.setdefault((leaf.key, pattern),
                                  (angles[table[o, t]], lengths[table[o, t]]))
    return series, deferred


def assert_accurate(path, run, got, want, conv):
    """The accuracy gate: per term kind (leaf angle, truncated length,
    cuff angle, cuff length), the pipeline's worst error against the
    50-digit oracle is at most twice the scalar pipeline's, want, plus
    two units in the last place of the largest term of that kind.

    The scalar error is also checked against 1e-8, far above any
    float64 rounding on these inputs (at most 2.3e-9, the genus-3
    path's truncated lengths) and far below the size of the terms, so
    an oracle that computed some other quantity fails rather than
    loosening the gate."""
    labels = [run] if run in ("attracting", "repelling") \
        else ["attracting", "repelling"]
    oracle = mp_term_series(path.pd, build_lamination(path.pd), path.reps,
                            labels, conv, list(got))
    array, seed = term_errors(got, oracle), term_errors(want, oracle)
    for kind in TERM_KINDS:
        (error, largest), (seed_error, _) = array[kind], seed[kind]
        assert seed_error < 1e-8, (kind, seed_error)
        assert error <= gate_bound(seed_error, largest), \
            (kind, error, seed_error, largest)


class TestTermOracle:
    """Every (leaf key, pattern) row at every sample, in the scalar
    pipeline's order, and within the accuracy gate."""

    CASES = {
        "bend_path": (lambda: bend_path(standard_decomposition(2)),
                      "attracting"),
        "genus3_vol_gamma": (lambda: genus3_path(lambda t: 2.0 + 0.1j * t,
                                                 steps=16), "vol-gamma"),
        "twist_loop_vol_gamma": (twist_loop, "vol-gamma"),
        "twist_loop_repelling": (twist_loop, "repelling"),
        # the CLI goldens' pure_bend.json and bent.json
        "pure_bend_vol_gamma": (lambda: bend_path(standard_decomposition(2),
                                                  steps=16), "vol-gamma"),
        "bent_rep_vol_gamma": (lambda: path_from_parameters(
            standard_decomposition(2), lambda t: (2.0, 1.7, 2.3),
            lambda t: (0.3 + 0.4j, 0.1, 0.2), steps=1), "vol-gamma"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_term(self, case):
        make, run = self.CASES[case]
        path = make()
        pd = path.pd
        conv = TruncationConvention.uniform(pd, 1.5)
        got, got_deferred = term_series(path, run, conv)
        want, want_deferred = seed_term_series(
            pd, build_lamination(pd), path.reps, chains(path, run)[1], conv)
        assert got_deferred is None and want_deferred is None
        assert list(got) == list(want)
        chains_seen = {max(pattern, default=0) for _, pattern in got}
        assert chains_seen == ({0} if run in ("attracting", "repelling")
                               else {0, 1})
        for angles, lengths in got.values():
            assert len(angles) == len(lengths) == len(path)
        assert_accurate(path, run, got, want, conv)


def flipped(path, cuffs):
    """path on its decomposition with the signs of the two ends of each
    of cuffs swapped, so that the positive end of a cuff can carry a
    conjugator, which no standard decomposition has."""
    pd = path.pd
    pants = tuple(Pants(tuple(CuffEnd(e.cuff, -e.sign if e.cuff in cuffs
                                      else e.sign, e.conjugator)
                              for e in p.cuff_ends)) for p in pd.pants)
    return path_from_reps(path.reps, ts=path.ts,
                          pd=dataclasses.replace(pd, pants=pants))


class TestCarriedCuffEnds:
    """cuff_bending carries a cuff's endpoints by the conjugator of its
    positive end before taking the cuff's frame; with a1 and a3 flipped
    it does so for two of the six cuffs, and every term is still within
    the accuracy gate."""

    @pytest.mark.parametrize("run", ["repelling", "vol-gamma"])
    def test_every_term(self, run):
        path = flipped(genus3_path(lambda t: 2.0 + 0.1j * t, steps=8),
                       {"a1", "a3"})
        pd = path.pd
        assert [bool(pd.pants[p].cuff_ends[k].conjugator)
                for (p, k), _ in map(pd.signed_ends_of,
                                     (c.id for c in pd.cuffs))] \
            == [True, False, True, False, False, False]
        conv = TruncationConvention.uniform(pd, 1.5)
        got, got_deferred = term_series(path, run, conv)
        want, want_deferred = seed_term_series(
            pd, build_lamination(pd), path.reps, chains(path, run)[1], conv)
        assert got_deferred is None and want_deferred is None
        assert list(got) == list(want)
        assert_accurate(path, run, got, want, conv)


def conjugated(path, s):
    """path conjugated by diag(e^(s t), e^(-s t)) at its sample t: the
    plaques drift towards 0 and infinity, and their vertices close up."""
    return path_from_reps(
        [rep.conjugated(MoebiusMap(math.exp(s * t), 0, 0, math.exp(-s * t)))
         for rep, t in zip(path.reps, path.ts)], ts=path.ts, pd=path.pd)


def growing_a1(steps=256):
    """A genus-2 bend whose cuff a1 grows from length 2 to 20: a far
    plaque vertex closes up on a leaf's endpoint ("coincident points
    p4, p2") at sample 234."""
    return path_from_parameters(
        standard_decomposition(2), lambda t: (2 + 18 * t, 1.7, 2.3),
        lambda t: (0.3 + 0.5j * t, 0.1, 0.2), steps=steps)


def twisting_w1():
    """A genus-2 path twisting w1 by 4 in 16 steps: the repelling
    endpoint of a2 loses track at sample 5, the attracting one never."""
    return path_from_parameters(
        standard_decomposition(2), lambda t: (2.0, 1.7, 2.3),
        lambda t: (0.3, 0.1, 0.2 + 4 * t), steps=16)


def outcome(run, path):
    """The failure the pipeline raises, as (type, message), or None."""
    try:
        run_pipeline(run, path)
    except PleatbendError as exc:
        return type(exc), str(exc)
    return None


def seed_outcome(run, path):
    """The failure of the scalar pipeline: the one it raises, else the
    deferred one (which vol_gamma raises once orientation 0 is
    integrated), as (type, message), or None."""
    pd = path.pd
    _, starts = chains(path, "attracting" if run == "volume-path" else run)
    try:
        _, deferred = seed_term_series(pd, build_lamination(pd), path.reps,
                                       starts,
                                       TruncationConvention.uniform(pd))
    except PleatbendError as exc:
        return type(exc), str(exc)
    return None if deferred is None else (type(deferred), str(deferred))


class TestFailurePrecedence:
    """A guard planted at sample k raises what the scalar pipeline, sample
    by sample, raised: the same type and message.  The guards of the
    orientation that takes chain 0 on every cuff come before those of
    the other patterns; within each, the guards of an earlier sample
    come before those of a later one whatever their stage."""

    PLANTED = {
        # conjugating a bend drags the endpoints of a2 past its gap
        "tracking": (lambda: conjugated(bend_path(standard_decomposition(2),
                                                  steps=16), 5),
                     OrientationTrackingFailure),
        "not_adapted": (lambda: with_bad_sample(bent_genus3(), 5,
                                                MoebiusMap(1, 1, 0, 1)),
                        NotAdapted),
        "triangle": (lambda: conjugated(bend_path(standard_decomposition(2),
                                                  steps=512), 10),
                     DegenerateTriangle),
        "configuration": (growing_a1, DegenerateConfiguration),
    }

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("planted", sorted(PLANTED))
    def test_planted_guard(self, planted, run):
        make, error = self.PLANTED[planted]
        path = make()
        got = outcome(run, path)
        assert got is not None and got[0] is error
        assert got == seed_outcome(run, path)

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("at, error", [(200, NotAdapted),
                                           (240, DegenerateConfiguration)])
    def test_earlier_sample_first(self, run, at, error):
        # a cuff check at sample 200 comes before the leaf term of
        # sample 234; the same check at sample 240 comes after it
        path = with_bad_sample(growing_a1(), at, MoebiusMap(1, 1, 0, 1))
        got = outcome(run, path)
        assert got is not None and got[0] is error
        assert got == seed_outcome(run, path)

    @pytest.mark.parametrize("run", RUNS)
    def test_lower_cuff_first(self, run):
        # a1 and a2 parabolic at the same sample: endpoint selection
        # fails on both cuffs there, stacked on one axis, and the lower
        # cuff's guard is met first
        parabolic = MoebiusMap(1, 1, 0, 1)
        alone = with_bad_sample(bent_genus3(), 5, parabolic, "a2")
        assert outcome(run, alone) == (NotAdapted, "cuff 'a2' is parabolic")
        path = with_bad_sample(alone, 5, parabolic)
        got = outcome(run, path)
        assert got == (NotAdapted, "cuff 'a1' is parabolic")
        assert got == seed_outcome(run, path)

    @pytest.mark.parametrize("run", RUNS)
    def test_lower_pants_first(self, run):
        # conjugating a genus-3 path by diag(e^8, e^-8) closes up the
        # plaques of pants 1 and 2, not 0 or 3, at its first sample;
        # placement stacks all pants on one axis, and pants 1 is met
        # first
        path = bent_genus3()
        s = MoebiusMap(math.exp(8), 0, 0, math.exp(-8))
        path = path_from_reps([rep.conjugated(s) for rep in path.reps],
                              ts=path.ts, pd=path.pd)
        pd = path.pd
        images = next(seed_sample_images(path.reps[:1], pd))
        zeta = seed_resolve_endpoints(images, pd, "attracting")
        collapsed = []
        for p in range(len(pd.pants)):
            try:
                SeedSample(images, pd).place(p, zeta)
            except DegenerateTriangle:
                collapsed.append(p)
        assert collapsed == [1, 2]
        got = outcome(run, path)
        assert got is not None and got[0] is DegenerateTriangle
        assert got[1].startswith("plaque of pants 1 ")
        assert got == seed_outcome(run, path)

    def test_chain_zero_before_an_earlier_sample(self):
        # chain 1 (all repelling) loses a2 at sample 5, and chain 0 meets
        # a parabolic a1 at sample 9: chain 0's failure is raised, as
        # integrating the all-forward orientation first meets it
        path = with_bad_sample(twisting_w1(), 9, MoebiusMap(1, 1, 0, 1))
        got = outcome("vol-gamma", path)
        assert got == (NotAdapted, "cuff 'a1' is parabolic")
        assert got == seed_outcome("vol-gamma", path)

    def test_deferred_chain_one_failure(self):
        # chain 1 (all repelling) fails at sample 5 and is dropped; chain
        # 0 integrates to the end, and then the deferred failure raises
        path = twisting_w1()
        conv = TruncationConvention.uniform(path.pd)
        integrate_volume_change(path, "attracting")
        got = outcome("vol-gamma", path)
        assert got is not None and got[0] is OrientationTrackingFailure
        assert got == seed_outcome("vol-gamma", path)
        pd = path.pd
        series, deferred = term_series(path, "vol-gamma", conv)
        want, want_deferred = seed_term_series(
            pd, build_lamination(pd), path.reps,
            chains(path, "vol-gamma")[1], conv)
        assert (type(deferred), str(deferred)) == \
            (type(want_deferred), str(want_deferred))
        assert list(series) == list(want)
        assert not any(any(pattern) for _, pattern in series)
        assert_accurate(path, "vol-gamma", series, want, conv)

    def test_unread_rows_stay_out_of_the_integral(self, monkeypatch):
        # once chain 1's failure is deferred no orientation reads its
        # rows; made inf, they must not reach the unwrap or the
        # derivative, where inf - inf would warn
        path = twisting_w1()
        path_terms = volume.path_terms

        def poisoned(*args):
            table, angles, lengths, deferred = path_terms(*args)
            unread = np.setdiff1d(np.arange(len(angles)), table)
            assert len(unread)
            angles[unread] = lengths[unread] = np.inf
            return table, angles, lengths, deferred

        monkeypatch.setattr(volume, "path_terms", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OrientationTrackingFailure):
                vol_gamma(path)


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_imports_resolve():
    # perfbench/worker.py and workloads.py import names from the
    # package; one it drops fails every benchmark run.  They are parsed,
    # not imported: importing the worker starts its timing probe
    for name in ("worker", "workloads"):
        with open(os.path.join(ROOT, "perfbench", f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "pleatbend"):
                continue
            home = importlib.import_module(node.module)
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                assert (hasattr(home, alias.name)
                        or importlib.util.find_spec(full) is not None), full


def test_traced_names_resolve():
    # perfbench/run.py --trace 1 wraps each traced function where its
    # module holds it, and MoebiusMap.__post_init__ to count maps; a
    # name the package drops breaks the traced run alone
    tracer = _load_perfbench("tracer")
    for module, names in tracer.TRACED.items():
        home = importlib.import_module(f"pleatbend.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
    assert callable(getattr(MoebiusMap, "__post_init__", None))


# sha256 of the files the benchmark's set-up writes, recorded on x86-64
# with numpy 2.4.6, like DEMO_SHA256 in test_scripts.py: the path files
# pin the gluing and the JSON writer byte for byte
SURFACE_G3 = "97a0af2ae95feded8767d54b4776470168026b3d7b6555f6793cbff45e4b93db"
SETUP_SHA256 = {
    ("VolGammaG3", 0): {
        "path-g3.json":
        "1973cecfd33c1e53bf00310f4e23ca54d50ff2104661b1068063d3f1eb7a241a",
        "surface-g3.json": SURFACE_G3},
    ("VolGammaG3", 125): {
        "path-g3.json":
        "d8a93009b0eb4a62ba6cc949eb2557d3539de383a6767eeea3231b295b983435",
        "surface-g3.json": SURFACE_G3},
    ("VolumePathG2", 0): {
        "path-g2.json":
        "b6214cced80fc76ce95fb6c885df6e7170d5d7da09896730b6c9064990f2e429",
        "surface-g2.json":
        "b7175f82603d7588a1fc620a7c38262625c42fad67ce4719432921e877767b1a"},
}


@pytest.mark.parametrize("workload,seed", sorted(SETUP_SHA256))
def test_benchmark_setup_bytes(tmp_path, workload, seed):
    # the files the timed runs read; a change to them changes what the
    # benchmark measures
    workloads = _load_perfbench("workloads")
    getattr(workloads, workload)(seed).setup(str(tmp_path))
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == SETUP_SHA256[workload, seed]


def _unnamed_private(sources: dict) -> list:
    """The private functions, classes, constants and methods defined in
    sources, module name -> source text, that no source names."""
    defined, named = [], set()
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                keys = [node.name]
            elif isinstance(node, ast.Assign):
                keys = [n.id for t in node.targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
            else:
                keys = []
            if isinstance(node, ast.ClassDef):
                keys += [f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            defined += [(module, key) for key in keys
                        if key.split(".")[-1].startswith("_")
                        and not key.split(".")[-1].startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [(module, key) for module, key in defined
            if key.split(".")[-1] not in named]


def test_private_helpers_are_called():
    # a private function, class, constant or method of the package that
    # nothing else in src/ names is dead code: delete it, or move it to
    # the tests that use it
    src = os.path.join(ROOT, "src", "pleatbend")
    sources = {}
    for module in os.listdir(src):
        if module.endswith(".py"):
            with open(os.path.join(src, module)) as fh:
                sources[module] = fh.read()
    assert _unnamed_private(sources) == []


def test_unnamed_private_method_is_found():
    # the check above sees methods too: one that nothing calls is named,
    # and so is a module-level helper
    source = ("class Box:\n"
              "    def _used(self):\n        return 1\n"
              "    def _unused(self):\n        return self._used()\n"
              "    def __len__(self):\n        return 0\n"
              "def _helper():\n    return Box()\n")
    assert _unnamed_private({"box.py": source}) == [
        ("box.py", "Box._unused"), ("box.py", "_helper")]


class TestReferenceDrift:
    """vol_gamma on the benchmark's genus-3 input against the recorded
    references, within the benchmark's 1e-10.  The references pin the
    rounding of CPython's complex quotient, which the kernel keeps:
    numpy's complex division in its place moves seeds 125 and 25 by
    4.7e-10 and 3.5e-10, and seeds 0, 37 and 127 by at most 1.4e-12."""

    @pytest.mark.parametrize("seed", [0, 25, 37, 125, 127])
    def test_vol_gamma_g3_seed(self, seed):
        workloads = _load_perfbench("workloads")
        with open(workloads.REFERENCE_FILE) as fh:
            ref = json.load(fh)[str(seed)]
        wl = workloads.VolGammaG3(seed)
        pd = standard_decomposition(3)
        built = path_from_parameters(pd, wl.lengths_at, wl.twists_at,
                                     steps=wl.steps)
        # the workload reads both from JSON files, as the CLI does
        pd = decomposition_from_dict(
            json.loads(json.dumps(decomposition_to_dict(pd))))
        path = path_from_dict(json.loads(json.dumps(path_to_dict(built))),
                              pd=pd)
        result = vol_gamma(path)
        got = {"".join("+" if b else "-" for b in ori.forward): r.delta_v
               for ori, r in zip(result.orientations, result.results)}
        got["total"] = result.total
        assert set(got) == set(ref)
        worst = max(abs(got[k] - float(v)) for k, v in ref.items())
        assert worst <= wl.tol
