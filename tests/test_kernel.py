"""The array kernel against the scalar arithmetic it replaces.

MoebiusArray repeats MoebiusMap's products, inverses and normalization
on float arrays, and sample_images evaluates a path's words and slot
commutators with it.  Every value must equal the scalar one with ==
(entries_of), and a sample the kernel cannot evaluate must raise
SampleEvaluationFailure.  The last class checks vol_gamma against the
benchmark's recorded references, which pin the digits this
bit-identity keeps.
"""

import importlib.util
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pleatbend import (MoebiusMap, NotAdapted, Representation,
                       SampleEvaluationFailure, SingularMatrix,
                       TruncationConvention, UnknownLetter,
                       integrate_volume_change, path_from_parameters,
                       path_from_reps, shared_endpoint_check,
                       standard_decomposition, vol_gamma)
from pleatbend import pleated
from pleatbend.moebius import (RESCALE_LIMIT, MoebiusArray, _unimodular,
                               trace_squared)
from pleatbend.pleated import sample_images
from pleatbend.representation import (evaluate_word, path_from_dict,
                                      path_to_dict)
from pleatbend.topology import (decomposition_from_dict,
                                decomposition_to_dict)

from _seed_kernel import entries_of, raw_entries, steep, steep_entries
from test_volume import genus2_loop, genus3_path

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


def assert_matches(got: MoebiusArray, want: list):
    """Entry by entry ==, and ok exactly where the scalar step passed."""
    assert got.ok.tolist() == [w is not None for w in want]
    for e, w in zip(got.entries().tolist(), want):
        if w is not None:
            assert entries_of(MoebiusMap._raw(*e)) == entries_of(w)


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
        xs, ys = MoebiusArray.of([x for x, _ in maps]), \
            MoebiusArray.of([y for _, y in maps])
        assert_matches(xs @ ys, [scalar(lambda: x @ y) for x, y in maps])
        assert_matches(xs.inverse(), [scalar(x.inverse) for x, _ in maps])
        comm = xs @ ys @ xs.inverse() @ ys.inverse()
        want = [scalar(lambda: x @ y @ x.inverse() @ y.inverse())
                for x, y in maps]
        assert_matches(comm, want)
        tr, ti = comm.trace_squared()
        for k, w in enumerate(want):
            if w is not None:
                t2 = trace_squared(w)
                assert (tr[k], ti[k]) == (t2.real, t2.imag)

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
        assert_matches(got, [scalar(lambda: MoebiusMap._from_unimodular(*e))
                             for e in entries])

    def test_identity_fold(self):
        maps = [MoebiusMap(2, 1j, 0.5, 1), MoebiusMap(*steep(900.0, 1.0))]
        assert_matches(MoebiusArray.identity(2) @ MoebiusArray.of(maps),
                       [MoebiusMap.identity() @ m for m in maps])


def pipeline_words(pd) -> set:
    """The words a sample of the pipeline reads."""
    words = {c.word for c in pd.cuffs}
    words |= {w for row in pd.slot_words for w in row}
    words |= {e.conjugator for pants in pd.pants for e in pants.cuff_ends}
    return words | set(pd.crossing_words.values())


def bent_genus3():
    return genus3_path(lambda t: 2.0 + 0.1j * t, steps=8)


def with_bad_sample(path, k, image):
    """path with the image of a1 at sample k replaced by image."""
    rep = path.reps[k]
    images = tuple(image if g == "a1" else m
                   for g, m in zip(rep.generators, rep.images))
    reps = list(path.reps)
    reps[k] = Representation(rep.generators, images, rep.relators)
    return path_from_reps(reps, ts=path.ts, pd=path.pd)


def run_pipeline(run, path):
    conv = TruncationConvention.uniform(path.pd)
    if run == "volume-path":
        return integrate_volume_change(path, "attracting", conv)
    return vol_gamma(path, conv)


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
        filled = list(sample_images(path.reps, pd))
        assert len(filled) == len(path)
        for rep, images in zip(path.reps, filled):
            assert set(images) == words
            for word, m in images.items():
                assert entries_of(m) == entries_of(evaluate_word(rep, word))
            assert set(images.commutators) == set(pd.slot_words)
            for row, traces in images.commutators.items():
                maps = [evaluate_word(rep, w) for w in row]
                want = [shared_endpoint_check(maps[i], maps[j])[1]
                        for i, j in PAIRS]
                assert [(t.real, t.imag) for t in traces] == \
                    [(t.real, t.imag) for t in want]

    def test_generators_looked_up_by_name(self):
        path = genus3_path(lambda t: 2.0 + 0.1j * t, steps=2)
        reps = list(path.reps[:2])
        last = reps[1]
        # one pass over samples that list their generators in two orders
        mixed = [reps[0], Representation(last.generators[::-1],
                                         last.images[::-1], last.relators)]
        for want, got in zip(sample_images(reps, path.pd),
                             sample_images(mixed, path.pd)):
            assert set(got) == set(want)
            for word, m in want.items():
                assert entries_of(got[word]) == entries_of(m)
            assert got.commutators == want.commutators
        lacking = reps + [
            Representation(("x", "y"), (MoebiusMap(2, 0, 0, 0.5),) * 2)]
        with pytest.raises(UnknownLetter, match="'a1' at sample 2"):
            list(sample_images(lacking, path.pd))

    @pytest.mark.parametrize("run", RUNS)
    def test_pipeline_reads_no_scalar_word(self, run, monkeypatch):
        def scalar(rep, word):
            raise AssertionError(f"scalar evaluation of {word!r}")

        monkeypatch.setattr(pleated, "evaluate_word", scalar)
        run_pipeline(run, bent_genus3())


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

    @pytest.mark.parametrize("run", RUNS)
    def test_earlier_guard_wins(self, run):
        path = with_bad_sample(bent_genus3(), 5, NAN)
        # a parabolic a1 at sample 3 fails endpoint tracking first
        path = with_bad_sample(path, 3, MoebiusMap(1, 1, 0, 1))
        with pytest.raises(NotAdapted, match="cuff 'a1' is parabolic"):
            run_pipeline(run, path)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReferenceDrift:
    """vol_gamma on the benchmark's genus-3 input against the recorded
    references, within the benchmark's 1e-10: a kernel that reorders
    complex rounding (numpy complex division) drifts by about 4e-8."""

    @pytest.mark.parametrize("seed", [0, 37, 127])
    def test_vol_gamma_g3_seed(self, seed):
        workloads = _load_workloads()
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
        result = vol_gamma(path, TruncationConvention.uniform(pd))
        got = {"".join("+" if b else "-" for b in ori.forward): r.delta_v
               for ori, r in zip(result.orientations, result.results)}
        got["total"] = result.total
        assert set(got) == set(ref)
        worst = max(abs(got[k] - float(v)) for k, v in ref.items())
        assert worst <= wl.tol
