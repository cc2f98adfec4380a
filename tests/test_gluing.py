"""The stacked Fenchel-Nielsen gluing against the scalar oracle.

fenchel_nielsen_rep and path_from_parameters glue every sample in one
array pass.  seed_fenchel_nielsen_rep (_seed_kernel) is the scalar
construction it replaced; every entry of every image must agree with it
bit for bit, signed zeros included, and every guard must raise the
oracle's error at the first failing sample.  load_path normalizes the
glued paths' files in one array pass too, and must agree bit for bit
with the constructor MoebiusMap(a, b, c, d) on each file entry.
"""

import cmath
import dataclasses
import importlib.util
import json
import math
import os
import struct

import numpy as np
import pytest

from pleatbend import (InvalidDecomposition, MoebiusMap,
                       NonHyperbolicParameters, PleatbendError,
                       fenchel_nielsen_rep, load_path, path_from_parameters,
                       standard_decomposition)
from pleatbend.moebius import _sqrt
from pleatbend.representation import _CHUNK, _normal_frames
from pleatbend.topology import (Cuff, decomposition_from_dict,
                                decomposition_to_dict)

from _seed_kernel import normal_frame, seed_fenchel_nielsen_rep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TWO_PI_I = 2j * math.pi


def bits(z) -> bytes:
    z = complex(z)
    return struct.pack("dd", z.real, z.imag)


def entry_bits(rep) -> list:
    return [bits(z) for m in rep.images for z in (m.a, m.b, m.c, m.d)]


def outcome(build):
    """What build() gives: the image bits, or (error type, message)."""
    try:
        return entry_bits(build())
    except PleatbendError as exc:
        return type(exc), str(exc)


def constant(genus: int, length, twist) -> tuple:
    pd = standard_decomposition(genus)
    n = len(pd.cuffs)
    return pd, [length(i) for i in range(n)], [twist(i) for i in range(n)]


CASES = {
    "fuchsian-g2": lambda: (standard_decomposition(2), (2.0, 1.7, 2.3),
                            (0.3, 0.1, 0.2)),
    "complex-length-g2": lambda: (standard_decomposition(2),
                                  (2.0 + 0.4j, 1.7 - 0.2j, 2.3 + 0.1j),
                                  (0.3, 0.1, 0.2)),
    "complex-twist-g2": lambda: (standard_decomposition(2), (2.0, 1.7, 2.3),
                                 (0.3 + 0.37j, 0.1 - 0.2j, 0.2 + 0.5j)),
    "near-elliptic-g2": lambda: (standard_decomposition(2),
                                 (1e-3 + 2.5j, 1e-4 + 3.0j, 2.3),
                                 (0.3, 0.1 + 0.2j, 0.2)),
    "elliptic-g2": lambda: (standard_decomposition(2), (0.8j, 2.0, 2.0),
                            (0.3 + 0.25j, 0.1, 0.2)),
    "dict-tables-g2": lambda: (standard_decomposition(2),
                               {"w1": 2.3, "a2": 1.7, "a1": 2.0},
                               {"a1": 0.3, "a2": 0.1j, "w1": -0.2}),
    "fuchsian-g3": lambda: constant(3, lambda i: 2.0 + 0.1 * i,
                                    lambda i: 0.1 * (i % 3)),
    "complex-g3": lambda: constant(3, lambda i: 2.0 + 0.1 * i + 0.05j * (i % 2),
                                   lambda i: 0.3 - 0.1 * i + 0.1j * (i % 3)),
    "near-elliptic-g3": lambda: constant(
        3, lambda i: 1e-3 + 2.5j if i == 2 else 2.0 + 0.1 * i,
        lambda i: 0.1 * (3 - i % 3)),
    "fuchsian-g4": lambda: constant(4, lambda i: 4.0, lambda i: 0.0),
    "twisted-g4": lambda: constant(4, lambda i: 4.0, lambda i: 0.1 * (i + 1)),
    "complex-twist-g4": lambda: constant(
        4, lambda i: 4.0, lambda i: 0.1 * (i + 1) + 0.05j * (i % 3)),
    # past the relator postcondition: both raise the same error
    "complex-length-g4": lambda: constant(
        4, lambda i: 4.0 + 0.05j * (i % 2), lambda i: 0.1 * (i + 1)),
}


class TestOracle:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_for_bit(self, name):
        pd, lengths, twists = CASES[name]()
        want = outcome(lambda: seed_fenchel_nielsen_rep(pd, lengths, twists))
        assert outcome(lambda: fenchel_nielsen_rep(pd, lengths, twists)) == want

    def test_cases_glue(self):
        # the comparisons above compare images, but for one error
        failing = {name for name, case in CASES.items()
                   if not isinstance(outcome(lambda: fenchel_nielsen_rep(
                       *case())), list)}
        assert failing == {"complex-length-g4"}

    def test_random_parameters(self):
        rng = np.random.default_rng(20)
        for genus in (2, 3, 4):
            pd = standard_decomposition(genus)
            n = len(pd.cuffs)
            for _ in range(8):
                base = 4.0 if genus == 4 else 2.0
                lengths = (base + rng.uniform(0, 0.5, n)
                           + 1j * rng.uniform(-0.3, 0.3, n) * (genus < 4))
                twists = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                assert (outcome(lambda: fenchel_nielsen_rep(pd, lengths, twists))
                        == outcome(lambda: seed_fenchel_nielsen_rep(
                            pd, lengths, twists)))


def test_sqrt_is_cmath_sqrt():
    # the constructor's square root of the determinant, on both half
    # planes, the imaginary axis (where numpy's complex sqrt rounds
    # differently) and the negative real axis with either signed zero
    rng = np.random.default_rng(3)
    z = list(rng.normal(0, 3, 200) + 1j * rng.normal(0, 3, 200))
    z += [complex(0.0, y) for y in rng.normal(0, 3, 50)]
    z += [complex(-0.0, y) for y in rng.normal(0, 3, 50)]
    z += [complex(x, s * 0.0) for x in -abs(rng.normal(0, 3, 50))
          for s in (1, -1)]
    z = np.array(z)
    re, im = _sqrt(z.real, z.imag)
    assert [bits(complex(a, b)) for a, b in zip(re, im)] == \
        [bits(cmath.sqrt(w)) for w in z]


def normal_frame_inputs():
    """Matrices for every branch of normal_frame: an eigenvector from the
    upper-right entry or from the lower-left, a diagonal matrix with
    either eigenvalue first, both column-sign flips and the sign flip
    of the whole matrix."""
    rng = np.random.default_rng(7)
    out = []
    for lam in (2.0, 1.3 + 0.4j, 1e-3 + 2.5j, 0.8j):
        mu = -np.exp(lam / 2)
        for b, c in ((0.7, 0.2), (-0.7, 0.2), (-0.0 - 0.5j, 0.1),
                     (0.1, 0.7), (0.1, -0.7), (0.0, 0.5j), (0.0, -0.0 - 0.5j),
                     (0.0, 0.0), (1e-20, 0.0)):
            a = mu + rng.normal()
            d = (1 + b * c) / a
            for m in ([[a, b], [c, d]], [[-a, -b], [-c, -d]]):
                out.append((np.array(m, dtype=complex), lam))
        out.append((np.diag([mu, 1 / mu]).astype(complex), lam))
        out.append((np.diag([1 / mu, mu]).astype(complex), lam))
    return out


def test_normal_frames_bit_for_bit():
    inputs = normal_frame_inputs()
    m = np.array([x for x, _ in inputs])
    lam = np.array([lam for _, lam in inputs], dtype=complex)
    frames, degenerate = _normal_frames(m, lam)
    assert not degenerate.any()
    for k, (x, lam_k) in enumerate(inputs):
        want = normal_frame(x, complex(lam_k))
        assert [bits(z) for z in frames[k].ravel()] == \
            [bits(z) for z in want.ravel()]


def test_diagonal_frame_branches_are_covered():
    # the identity frame and the swap frame [[0, -1], [1, 0]] of the two
    # diagonal branches, besides the frames of the entry branches
    inputs = normal_frame_inputs()
    m = np.array([x for x, _ in inputs])
    lam = np.array([lam for _, lam in inputs], dtype=complex)
    frames, _ = _normal_frames(m, lam)
    identity = [f for f in frames if f[0, 1] == 0 and f[1, 0] == 0]
    swap = [f for f in frames if f[0, 0] == 0 and f[1, 1] == 0]
    assert identity and swap
    assert len(identity) + len(swap) < len(frames)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def turn(t):
    return 2 * math.pi * t


def paths() -> dict:
    """The paths of the test suite and the benchmark's inputs, as
    (genus, lengths_at, twists_at, steps)."""
    workloads = _load_workloads()
    g3 = workloads.VolGammaG3(0)
    g2 = workloads.VolumePathG2(0)
    return {
        "bend": (2, lambda t: (2.0, 1.7, 2.3),
                 lambda t: (0.3 + 0.5j * t, 0.1, 0.2), 64),
        "genus2-loop": (2, lambda t: (2 + 0.3j * math.sin(turn(t)),
                                      1.7 + 0.2 * (1 - math.cos(turn(t))),
                                      2.3 + 0.1j * math.sin(2 * turn(t))),
                        lambda t: (0.3 + 0.4j * math.sin(turn(t)),
                                   0.1 + 0.3j * (1 - math.cos(turn(t))), 0.2),
                        32),
        "elliptic-crossing": (2, lambda t: (1.5 * (t - 0.5) ** 2 + 0.8j,
                                            2.0 + 0.1 * t, 2.0),
                              lambda t: (0.3 + 0.25j * t, 0.1 - 0.1j * t * t,
                                         0.2 + 0.15j * t), 16),
        "growing-a1": (2, lambda t: (2 + 18 * t, 1.7, 2.3),
                       lambda t: (0.3 + 0.5j * t, 0.1, 0.2), 256),
        "twisting-w1": (2, lambda t: (2.0, 1.7, 2.3),
                        lambda t: (0.3, 0.1, 0.2 + 4 * t), 16),
        "genus3": (3, lambda t: (2 + 0.2j * t, 2.1, 2.2 + 0.05j * t, 2.3,
                                 2.4 + 0.05 * t, 2.5),
                   lambda t: (0.3 + 0.15j * t, 0.2 + 0.1j * t, 0.1, 0.3, 0.2,
                              0.1), 16),
        "vol-gamma-g3": (3, g3.lengths_at, g3.twists_at, g3.steps),
        "volume-path-g2": (2, lambda t: (g2.length, 1.7, 2.3),
                           lambda t: (0.3 + 1j * g2.theta * t, 0.1, 0.2),
                           g2.steps),
    }


@pytest.mark.parametrize("name", ["bend", "genus2-loop", "elliptic-crossing",
                                  "growing-a1", "twisting-w1", "genus3",
                                  "vol-gamma-g3", "volume-path-g2"])
def test_path_bit_for_bit(name):
    genus, lengths_at, twists_at, steps = paths()[name]
    pd = standard_decomposition(genus)
    path = path_from_parameters(pd, lengths_at, twists_at, steps=steps)
    ts = np.linspace(0.0, 1.0, steps + 1)
    assert path.ts == tuple(float(t) for t in ts)
    for t, rep in zip(ts, path.reps):
        want = seed_fenchel_nielsen_rep(pd, lengths_at(t), twists_at(t))
        assert entry_bits(rep) == entry_bits(want)


@pytest.mark.parametrize("name", ["vol-gamma-g3", "volume-path-g2"])
def test_loaded_path_matches_constructor_bit_for_bit(name, tmp_path):
    workloads = _load_workloads()
    cls = {w.name: w for w in (workloads.VolGammaG3, workloads.VolumePathG2)}
    workload = cls[name](0)
    workload.setup(str(tmp_path))
    with open(workload.path) as fh:
        data = json.load(fh)
    path = load_path(workload.path)
    assert len(path) == len(data["samples"])
    for sample, rep in zip(data["samples"], path.reps):
        matrices = sample["matrices"]
        assert rep.generators == tuple(data["generators"])
        want = [MoebiusMap(*(complex(re, im) for re, im in matrices[g]))
                for g in rep.generators]
        assert entry_bits(rep) == [bits(z) for m in want
                                   for z in (m.a, m.b, m.c, m.d)]


# ---------------------------------------------------------------------------
# guards


def oracle_error(pd, lengths, twists):
    with pytest.raises(PleatbendError) as seed:
        seed_fenchel_nielsen_rep(pd, lengths, twists)
    return type(seed.value), str(seed.value)


def glued_error(pd, lengths, twists):
    with pytest.raises(PleatbendError) as got:
        fenchel_nielsen_rep(pd, lengths, twists)
    return type(got.value), str(got.value)


PD2 = standard_decomposition(2)
LENGTHS = (2.0, 1.7, 2.3)
TWISTS = (0.3, 0.1, 0.2)
# the chain-of-handles decomposition with cuff a1's word read as a2's:
# the gluing is unchanged, and a1's trace misses its requested length
WRONG_WORD = dataclasses.replace(
    PD2, cuffs=(Cuff(id="a1", word="a2"),) + PD2.cuffs[1:])

GUARDS = {
    "negative-length": (PD2, (-1.0, 1.7, 2.3), TWISTS,
                        NonHyperbolicParameters, "negative real part"),
    "negative-third-length": (PD2, (2.0, 1.7, -0.5 + 1j), TWISTS,
                              NonHyperbolicParameters, "negative real part"),
    "length-2-pi-i": (PD2, (TWO_PI_I, 1.7, 2.3), TWISTS,
                      NonHyperbolicParameters, "multiple of 2 pi i"),
    "zero-length": (PD2, (0.0, 1.7, 2.3), TWISTS,
                    NonHyperbolicParameters, "multiple of 2 pi i"),
    "degenerate-triple": (PD2, (2.0, 1.7, TWO_PI_I), TWISTS,
                          NonHyperbolicParameters, "degenerate cuff length"),
    "degenerate-triple-2": (PD2, (2.0, 1.7, 4.0 + TWO_PI_I), TWISTS,
                            NonHyperbolicParameters, "degenerate cuff length"),
    "degenerate-frame": (PD2, (2.0, 1.7, 0.0), TWISTS,
                         NonHyperbolicParameters, "eigenframe degenerate"),
    "too-few-lengths": (PD2, (2.0, 1.7), TWISTS, NonHyperbolicParameters,
                        "expected 3 length values, got 2"),
    "too-many-twists": (PD2, LENGTHS, (0.3, 0.1, 0.2, 0.0),
                        NonHyperbolicParameters,
                        "expected 3 twist values, got 4"),
    "missing-cuffs": (PD2, LENGTHS, {"a1": 0.3}, NonHyperbolicParameters,
                      "missing twist for cuffs ['a2', 'w1']"),
    "relator-postcondition": (standard_decomposition(5), (1.0,) * 12,
                              (0.0,) * 12, PleatbendError,
                              "gluing postcondition failed: relator residual"),
    "cuff-trace-postcondition": (WRONG_WORD, LENGTHS, TWISTS, PleatbendError,
                                 "gluing postcondition failed: cuff 'a1' "
                                 "trace"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_raises_the_oracle_error(name):
    pd, lengths, twists, kind, words = GUARDS[name]
    got = glued_error(pd, lengths, twists)
    assert got[0] is kind and words in got[1]
    assert got == oracle_error(pd, lengths, twists)


@pytest.mark.parametrize("lengths,twists,cuff,what", [
    ((math.nan, 1.7, 2.3), TWISTS, "a1", "length"),
    ((2.0, complex(1.7, math.nan), 2.3), TWISTS, "a2", "length"),
    ((2.0, 1.7, math.inf), TWISTS, "w1", "length"),
    (LENGTHS, (0.3, 0.1, math.nan), "w1", "twist"),
    (LENGTHS, (math.inf, 0.1, 0.2), "a1", "twist"),
    (LENGTHS, {"a1": 0.3, "a2": complex(0.1, -math.inf), "w1": 0.2}, "a2",
     "twist"),
])
def test_non_finite_parameter_is_named(lengths, twists, cuff, what):
    # a NaN used to glue a NaN representation, and an infinite twist
    # to raise ZeroDivisionError
    with pytest.raises(NonHyperbolicParameters,
                       match=f"^{what} of cuff '{cuff}' is .*, not finite$"):
        fenchel_nielsen_rep(PD2, lengths, twists)


def test_postcondition_fails_on_nan():
    # finite lengths whose frame at w1 divides by zero glue a NaN
    # representation, which the residual check let pass as long as it
    # read res > 1e-6
    lengths = (2.0, 1.7, 2 * TWO_PI_I)
    with np.errstate(all="ignore"):
        seed = seed_fenchel_nielsen_rep(PD2, lengths, TWISTS)
    assert math.isnan(seed.relator_residual())
    with pytest.raises(PleatbendError, match="relator residual nan"):
        fenchel_nielsen_rep(PD2, lengths, TWISTS)


def test_overflowing_length_is_a_gluing_error():
    # cmath.exp raised a bare OverflowError past the float range; numpy's
    # exp overflows to inf, and the postcondition refuses the result
    with pytest.raises(OverflowError):
        seed_fenchel_nielsen_rep(PD2, (2000.0, 1.7, 2.3), TWISTS)
    with pytest.raises(PleatbendError, match="gluing postcondition failed"):
        fenchel_nielsen_rep(PD2, (2000.0, 1.7, 2.3), TWISTS)


def test_recipe_errors_come_first():
    bare = dataclasses.replace(PD2, fenchel_nielsen=None)
    with pytest.raises(InvalidDecomposition, match="no gluing recipe"):
        fenchel_nielsen_rep(bare, (-1.0, 1.7), TWISTS)


def _edited_recipe(edit):
    document = json.loads(json.dumps(decomposition_to_dict(PD2)))
    edit(document["fenchel_nielsen"])
    return decomposition_from_dict(document)


@pytest.mark.parametrize("edit,message", [
    (lambda fn: fn["generator_roles"]["a1"].update(pants=7),
     "boundary generator 'a1' names pants 7 slot 0"),
    (lambda fn: fn["generator_roles"]["a1"].update(slot=5),
     "boundary generator 'a1' names pants 0 slot 5"),
    (lambda fn: fn["generator_roles"]["a2"].update(pants=-1),
     "boundary generator 'a2' names pants -1 slot 0"),
    (lambda fn: fn["generator_roles"]["a2"].pop("slot"),
     "boundary generator 'a2' names pants 1 slot None"),
    (lambda fn: fn.update(tree_cuffs=["zz"]), "tree cuff 'zz' is not a cuff"),
    (lambda fn: fn.update(root=9), "gluing root 9 is not a pants"),
], ids=["pants-7", "slot-5", "pants-minus-1", "no-slot", "tree-cuff-zz",
        "root-9"])
def test_recipe_is_checked(edit, message):
    # read from a document, before any parameter: the lengths here
    # would fail their own guard
    pd = _edited_recipe(edit)
    with pytest.raises(InvalidDecomposition, match=message):
        fenchel_nielsen_rep(pd, (-1.0, 1.7), TWISTS)


# ---------------------------------------------------------------------------
# paths: the first failing sample, named


def planted(plants: dict):
    """Lengths and twists of the bend path, with plants[k] = (lengths,
    twists) at sample k of 8."""
    def lengths_at(t):
        return plants.get(round(8 * t), (LENGTHS, None))[0]

    def twists_at(t):
        twists = plants.get(round(8 * t), (None, None))[1]
        return (0.3 + 0.5j * t, 0.1, 0.2) if twists is None else twists

    return lengths_at, twists_at


def path_error(plants: dict):
    lengths_at, twists_at = planted(plants)
    with pytest.raises(PleatbendError) as got:
        path_from_parameters(PD2, lengths_at, twists_at, steps=8)
    return type(got.value), str(got.value)


def sample_oracle(plants: dict, k: int):
    lengths_at, twists_at = planted(plants)
    t = k / 8
    kind, message = oracle_error(PD2, lengths_at(t), twists_at(t))
    return kind, f"{message} at sample {k} (t={t!r})"


@pytest.mark.parametrize("third,fifth", [
    ("negative-length", "length-2-pi-i"),
    # a later guard at sample 3 comes before an earlier one at sample 5
    ("degenerate-triple", "negative-length"),
    ("missing-cuffs", "negative-length"),
    ("negative-length", "missing-cuffs"),
    ("too-few-lengths", "degenerate-triple"),
])
def test_first_failing_sample_wins(third, fifth):
    plants = {k: GUARDS[name][1:3] for k, name in ((3, third), (5, fifth))}
    assert path_error(plants) == sample_oracle(plants, 3)


def test_first_failing_guard_within_a_sample():
    # pants 1 fails on a negative length, pants 0 on a degenerate triple
    plants = {4: ((2.0, -1.0, TWO_PI_I), TWISTS)}
    kind, message = path_error(plants)
    assert (kind, message) == sample_oracle(plants, 4)
    assert message.startswith("degenerate cuff length triple")
    assert message.endswith("(pants 0) at sample 4 (t=0.5)")


def test_non_finite_sample_is_named():
    plants = {6: ((2.0, math.nan, 2.3), TWISTS)}
    assert path_error(plants) == (
        NonHyperbolicParameters,
        "length of cuff 'a2' is (nan+0j), not finite at sample 6 (t=0.75)")


def test_failing_sample_past_the_first_chunk():
    # the pass glues at most _CHUNK samples at once; samples are still
    # numbered along the whole path
    steps = _CHUNK + 64
    bad = {_CHUNK + 6: (-1.0, 1.7, 2.3), _CHUNK + 9: (2.0, 1.7)}

    def lengths_at(t):
        return bad.get(round(steps * t), LENGTHS)

    k = _CHUNK + 6
    t = float(np.linspace(0.0, 1.0, steps + 1)[k])
    with pytest.raises(NonHyperbolicParameters) as got:
        path_from_parameters(PD2, lengths_at, lambda t: TWISTS, steps=steps)
    assert str(got.value) == (
        f"{oracle_error(PD2, bad[k], TWISTS)[1]} at sample {k} (t={t!r})")
