"""Representations of surface and manifold groups into PSL(2, C).

A representation stores one Mobius map per generator; words are
evaluated left to right.  Characters are recorded through squared
traces tau(w) = tr^2 rho(w), which are well defined on PSL(2, C) and
holomorphic in matrix entries, so the character map is differentiated
on tau vectors (peripheral fingerprints).

fenchel_nielsen_rep builds a representation of a pants-decomposed
surface group from one complex length per cuff and one complex
twist-bend per cuff.  Real parameters give a Fuchsian group (all
matrices literally real); adding i*theta to a twist bends the surface
along that cuff.
"""

from __future__ import annotations

import cmath
import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (InvalidDecomposition, NonHyperbolicParameters,
                     PleatbendError, ReducibleRepresentation, SingularMatrix,
                     UnknownLetter)
from .moebius import (EPS_CLASS, MoebiusArray, MoebiusMap, _cdiv, _cmul,
                      _complex, _half_power, _modulus, _normalized, _unit,
                      trace_squared)
from .topology import (BoundaryInclusion, PantsDecomposition, _check_shape,
                       _tokens, _word_plan)

EPS_RANK = 1e-8        # singular values counted, relative to the largest
REDUCIBLE_TOL = 1e-8   # chordal distance of a common fixed point
_NUMBER = (int, float)  # a number of a file, to _check_shape


@dataclass(frozen=True)
class Representation:
    generators: tuple[str, ...]
    images: tuple[MoebiusMap, ...]
    relators: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.generators) != len(self.images):
            raise InvalidDecomposition("one image per generator required")
        _check_distinct(self.generators)

    @property
    def image_of(self) -> dict[str, MoebiusMap]:
        return dict(zip(self.generators, self.images))

    def conjugated(self, g: MoebiusMap) -> "Representation":
        return Representation(self.generators,
                              tuple(m.conjugate_by(g) for m in self.images),
                              self.relators)

    def relator_residual(self) -> float:
        """Largest distance of a relator image from the identity."""
        if not self.relators:
            return 0.0
        ident = MoebiusMap.identity()
        return max(evaluate_word(self, r).distance_to(ident) for r in self.relators)


def evaluate_word(rep: Representation, word: str) -> MoebiusMap:
    """Image of a word, letters applied left to right.

    Upper-case letters denote inverses; the empty word is the identity.
    """
    table = rep.image_of
    out = MoebiusMap.identity()
    for base, inv in _tokens(word):
        if base not in table:
            raise UnknownLetter(f"no image for generator {base!r}")
        m = table[base]
        out = out @ (m.inverse() if inv else m)
    return out


def _word_images(generators, matrices: np.ndarray, words) -> MoebiusArray:
    """evaluate_word of every word at every sample of matrices, the
    images of generators (2, 2, generators, n), at once: (2, 2, words,
    n).  The distinct token prefixes of depth k are one stacked product
    of their depth k - 1 prefixes and their last letters, the first
    level the identity times each first letter, as evaluate_word
    multiplies it.  Each level is freed once the words that end there
    are stored.  A letter that is not a generator raises UnknownLetter."""
    tokens = [_tokens(w) for w in words]
    bases = list(dict.fromkeys(b for t in tokens for b, _ in t))
    column = {g: i for i, g in enumerate(generators)}
    missing = [b for b in bases if b not in column]
    if missing:
        raise UnknownLetter(f"no image for generator {missing[0]!r}")
    z = matrices[:, :, [column[b] for b in bases]]
    letters = MoebiusArray(z.real.copy(), z.imag.copy(),
                           np.ones(z.shape[2:], dtype=bool))
    inverses = letters.inverse()
    letters = MoebiusArray(np.concatenate([letters.re, inverses.re], axis=2),
                           np.concatenate([letters.im, inverses.im], axis=2),
                           np.concatenate([letters.ok, inverses.ok]))
    letter = {(b, inv): i + inv * len(bases) for i, b in enumerate(bases)
              for inv in (False, True)}
    n = matrices.shape[3]
    shape = (len(tokens), n)
    stack = MoebiusArray(np.empty((2, 2) + shape), np.empty((2, 2) + shape),
                         np.empty(shape, dtype=bool))
    level, prefixes = MoebiusArray.identity((1, n)), [()]
    for k in range(max(map(len, tokens)) + 1):
        if k:
            position = {p: i for i, p in enumerate(prefixes)}
            prefixes = list(dict.fromkeys(t[:k] for t in tokens
                                          if len(t) >= k))
            level = (level.take([position[p[:-1]] for p in prefixes])
                     @ letters.take([letter[p[-1]] for p in prefixes]))
        # the words that end at depth k
        ends = [i for i, t in enumerate(tokens) if len(t) == k]
        at = [prefixes.index(tokens[i]) for i in ends]
        stack.re[:, :, ends] = level.re[:, :, at]
        stack.im[:, :, ends] = level.im[:, :, at]
        stack.ok[ends] = level.ok[at]
    return stack


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class CharacterFingerprint:
    """Squared traces of a fixed word list, in order."""

    words: tuple[str, ...]
    values: tuple[complex, ...]

    def distance(self, other: "CharacterFingerprint") -> float:
        """Largest per-word difference, scaled down where the squared
        traces themselves are large (long words reach 1e4 and beyond,
        where an absolute comparison would only measure float noise)."""
        if self.words != other.words:
            raise PleatbendError("fingerprints taken over different word lists")
        return max((abs(a - b) / (1 + abs(a) + abs(b))
                    for a, b in zip(self.values, other.values)),
                   default=0.0)


def finite_trace_squared(word: str, image: MoebiusMap) -> complex:
    """tr^2 of image, the image of word; SingularMatrix, naming the
    word, where it is not finite."""
    t2 = trace_squared(image)
    if not cmath.isfinite(t2):
        raise SingularMatrix(
            f"squared trace {t2} of word {word!r} is not finite")
    return t2


def fingerprint(rep: Representation, words) -> CharacterFingerprint:
    """The squared traces of words at rep.  A word whose tr^2 is not
    finite raises SingularMatrix: no distance could be taken from it."""
    words = tuple(words)
    images = [evaluate_word(rep, w) for w in words]
    vals = tuple(finite_trace_squared(w, m) for w, m in zip(words, images))
    return CharacterFingerprint(words=words, values=vals)


def standard_word_list(generators) -> tuple[str, ...]:
    """Generators, pairwise products, and the full product.

    For two generators x, y this is (x, y, xy).
    """
    gens = tuple(generators)
    words = list(gens)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            words.append(gens[i] + gens[j])
    if len(gens) > 2:
        words.append("".join(gens))
    return tuple(dict.fromkeys(words))


def peripheral_fingerprint(rep: Representation,
                           boundary: BoundaryInclusion) -> CharacterFingerprint:
    """Squared traces of all peripheral words pushed through the inclusion.

    The representation lives on the manifold group; each boundary
    component's peripheral words are rewritten via its generator words
    (BoundaryInclusion.peripheral_words) and evaluated there.
    """
    return fingerprint(rep, boundary.peripheral_words)


def inclusion_relator_residual(rep: Representation, pd: PantsDecomposition,
                               boundary: BoundaryInclusion) -> float:
    """How far surface relators are from dying in the manifold group.

    Rewrites every surface relator through every boundary component and
    evaluates in the manifold representation; exact inclusions give 0.
    """
    ident = MoebiusMap.identity()
    worst = 0.0
    for comp in boundary.components:
        for rel in pd.relators:
            img = evaluate_word(rep, comp.include_word(rel))
            worst = max(worst, img.distance_to(ident))
    return worst


# ---------------------------------------------------------------------------
# explicit constructors


def rep_from_trace_triple(x: complex, y: complex, z: complex,
                          generators=("x", "y")) -> Representation:
    """Two-generator representation with tr X = x, tr Y = y, tr XY = z.

    Normal form: X upper triangular with unit upper-right entry, Y lower
    triangular with unit lower-left defect.  The pair is reducible
    exactly when x^2 + y^2 + z^2 - xyz = 4.
    """
    a = (x + cmath.sqrt(x * x - 4)) / 2
    b = (y + cmath.sqrt(y * y - 4)) / 2
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        raise NonHyperbolicParameters("trace parameter too close to singular")
    c = z - a * b - 1 / (a * b)
    X = MoebiusMap(a, 1.0, 0.0, 1 / a)
    Y = MoebiusMap(b, 0.0, c, 1 / b)
    return Representation(generators=tuple(generators), images=(X, Y))


def commutator_trace(x: complex, y: complex, z: complex) -> complex:
    """tr [X, Y] as a polynomial in the three traces."""
    return x * x + y * y + z * z - x * y * z - 2


def random_representation(rng: np.random.Generator,
                          generators=("x", "y")) -> Representation:
    """Random irreducible two-generator representation.

    Trace triples, each with real part drawn from normal(0, 2) and
    imaginary part from normal(0, 1), are drawn until the commutator
    trace is well away from 2, which rules out reducible pairs.
    """
    while True:
        x, y, z = (complex(rng.normal(0, 2), rng.normal(0, 1))
                   for _ in range(3))
        if abs(commutator_trace(x, y, z) - 2) > 0.5:
            return rep_from_trace_triple(x, y, z, generators)


# ---------------------------------------------------------------------------
# Fenchel-Nielsen construction
#
# One stacked pass glues every sample of a parameter path: values carry a
# leading sample axis, and each step is the scalar construction's, bit
# for bit.  2x2 products are np.matmul, the same BLAS product at every
# sample, and exp and cosh numpy's, which agree with cmath's; every other
# rounding is moebius's (see its complex arithmetic).

_R = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def _mat(m: MoebiusMap) -> np.ndarray:
    return np.array(m.rows(), dtype=complex)


def _adj(m: np.ndarray) -> np.ndarray:
    """Adjugates of the 2x2 matrices in the last two axes, C-contiguous."""
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def _det(m: np.ndarray) -> np.ndarray:
    return (_cmul(m[..., 0, 0], m[..., 1, 1])
            - _cmul(m[..., 0, 1], m[..., 1, 0]))


def _pants_triples(lam: np.ndarray) -> tuple:
    """Boundary matrices of every pair of pants from the cuff lengths at
    its slots, lam (..., 3): X1, X2, X3 in (..., 3, 2, 2) with X1 X2 X3 =
    I, tr X_k = -2 cosh(l_k / 2) and X1 diagonal.  Also the masks where
    the construction degenerates: a length with negative real part
    (..., 3), l1 in 2 pi i Z and a degenerate triple (...)."""
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    u = np.exp(_cdiv(l1, 2))
    denom = u - _cdiv(1, u)
    h2 = np.cosh(_cdiv(l2, 2))
    p = _cdiv(_cmul(2, np.cosh(_cdiv(l3, 2))) + _cdiv(_cmul(2, h2), u),
              denom)
    s = _cmul(-2, h2) - p
    q = _cmul(p, s) - 1
    X = np.zeros(lam.shape + (2, 2), dtype=complex)
    X[..., 0, 0, 0] = -u
    X[..., 0, 1, 1] = _cdiv(-1, u)
    X[..., 1, 0, 0] = p
    X[..., 1, 0, 1] = q
    X[..., 1, 1, 0] = 1.0
    X[..., 1, 1, 1] = s
    # the inverse of a determinant-one product
    X[..., 2, :, :] = _adj(X[..., 0, :, :] @ X[..., 1, :, :])
    return (X, lam.real < -1e-12, _modulus(denom) < 1e-9,
            _modulus(q) < 1e-9)


def _normal_frames(m: np.ndarray, lam: np.ndarray) -> tuple:
    """Eigenframes P with P^-1 m P = diag(-e^{lam/2}, -e^{-lam/2}), and
    the mask where a frame is degenerate.

    The eigenvalues are supplied, not extracted, so the frames vary
    smoothly along parameter paths.  Columns are kept unnormalized
    except for a positive real rescale; the determinant is rotated to
    the right half plane, which keeps frames of real matrices real.
    """
    target = _cmul(-2, np.cosh(_cdiv(lam, 2)))
    tr = m[..., 0, 0] + m[..., 1, 1]
    negate = _modulus(tr - target) > _modulus(tr + target)
    m = np.where(negate[..., None, None], -m, m)
    mup = -np.exp(_cdiv(lam, 2))
    mum = -np.exp(_cdiv(-lam, 2))
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    scale = _modulus(a) + _modulus(d) + 1
    by_b = (_modulus(b) >= _modulus(c)) & (_modulus(b) > 1e-14 * scale)
    by_c = ~by_b & (_modulus(c) > 1e-14 * scale)
    up = _modulus(a - mup) <= _modulus(a - mum)

    def pick(on_b, on_c, on_up, other):
        return np.where(by_b, on_b, np.where(by_c, on_c,
                                             np.where(up, on_up, other)))

    P = np.empty(m.shape, dtype=complex)
    P[..., 0, 0] = pick(b, mup - d, 1.0, 0.0)
    P[..., 1, 0] = pick(mup - a, c, 0.0, 1.0)
    P[..., 0, 1] = pick(b, mum - d, 0.0, -1.0)
    P[..., 1, 1] = pick(mum - a, c, 1.0, 0.0)
    # the frame determinant is +-2 * entry * sinh(lam/2); the column-sign
    # flip is keyed to the entry, not the raw determinant, so that near
    # elliptic target lengths (sinh almost imaginary) the choice does
    # not chatter on roundoff
    flip = (by_b & ((b.real < 0) | (b.real == 0) & (b.imag < 0))
            | by_c & ((c.real > 0) | (c.real == 0) & (c.imag > 0)))
    for i in (0, 1):
        P[..., i, 1] = np.where(flip, _cmul(P[..., i, 1], -1), P[..., i, 1])
    return _unit_det_modulus(P), _modulus(_det(P)) < 1e-30


def _twist_matrices(s: np.ndarray) -> np.ndarray:
    # orientation chosen so that bending theta = Im s turns up as +theta
    # in the crossing angle at the cuff
    u = np.exp(_cdiv(-s, 2))
    W = np.zeros(s.shape + (2, 2), dtype=complex)
    W[..., 0, 0] = u
    W[..., 1, 1] = _cdiv(1, u)
    return W


def _unit_det_modulus(m: np.ndarray) -> np.ndarray:
    return m / _half_power(_modulus(_det(m)))[..., None, None]


def _conjugated(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g x g^-1."""
    return g @ x @ (_adj(g) / _det(g)[..., None, None])


def _gluing(pd: PantsDecomposition) -> tuple:
    """The gluing recipe of pd resolved against it: the root pants; the
    cuff column of every pants slot (pants, 3); the tree cuffs in gluing
    order, (column, parent slot, child slot); the stable cuffs, (column,
    positive slot, negative slot); the boundary generators, (pants,
    slot); and the generators in the order of the pass's image rows,
    stable letters first.  Raises InvalidDecomposition where the recipe
    cannot glue, before any parameter is read."""
    fn = pd.fenchel_nielsen
    if fn is None:
        raise InvalidDecomposition(
            "decomposition carries no gluing recipe; build it with "
            "standard_decomposition or add a fenchel_nielsen block")
    if fn.root not in range(len(pd.pants)):
        raise InvalidDecomposition(f"gluing root {fn.root!r} is not a pants")
    column = {c.id: i for i, c in enumerate(pd.cuffs)}
    for cid in fn.tree_cuffs:
        if cid not in column:
            raise InvalidDecomposition(f"tree cuff {cid!r} is not a cuff")
    ends = {c.id: pd.signed_ends_of(c.id) for c in pd.cuffs}
    tree_cuffs = set(fn.tree_cuffs)

    # one conjugation per pants, accumulated along the spanning tree
    reached, tree = {fn.root}, []
    pending = set(tree_cuffs)
    progress = True
    while pending and progress:
        progress = False
        for cid in sorted(pending):
            (pp, kp), (pm, km) = ends[cid]
            for e in (pd.pants[pp].cuff_ends[kp], pd.pants[pm].cuff_ends[km]):
                if e.conjugator:
                    raise InvalidDecomposition(
                        f"tree cuff {cid!r} has a conjugated end; gluing "
                        "recipe requires plain tree ends")
            if (pp in reached) == (pm in reached):
                continue
            parent, child = (((pp, kp), (pm, km)) if pp in reached
                             else ((pm, km), (pp, kp)))
            reached.add(child[0])
            tree.append((column[cid], parent, child))
            pending.discard(cid)
            progress = True
    if pending or len(reached) < len(pd.pants):
        raise InvalidDecomposition(
            f"gluing tree does not reach all pants (stuck on {sorted(pending)})")

    # stable letters for the remaining cuffs
    roles = fn.generator_roles
    stable_gen = {role.get("cuff"): g for g, role in roles.items()
                  if role.get("kind") == "stable"}
    stable, gens = [], []
    for cuff in pd.cuffs:
        cid = cuff.id
        if cid in tree_cuffs:
            continue
        if cid not in stable_gen:
            raise InvalidDecomposition(
                f"cuff {cid!r} is not a tree edge and has no stable letter")
        (pp, kp), (pm, km) = ends[cid]
        if pd.pants[pp].cuff_ends[kp].conjugator != "":
            raise InvalidDecomposition(
                f"positive end of cuff {cid!r} must carry no conjugator")
        if pd.pants[pm].cuff_ends[km].conjugator != stable_gen[cid]:
            raise InvalidDecomposition(
                f"negative end of cuff {cid!r} must be conjugated by its "
                f"stable letter {stable_gen[cid]!r}")
        stable.append((column[cid], (pp, kp), (pm, km)))
        gens.append(stable_gen[cid])

    boundary = []
    for g in pd.generators:
        role = roles.get(g)
        if role is None:
            raise InvalidDecomposition(f"generator {g!r} has no gluing role")
        if role.get("kind") == "boundary":
            p, k = role.get("pants"), role.get("slot")
            # a bool is an int, and True in range(2) holds
            if not (type(p) is int and type(k) is int
                    and p in range(len(pd.pants)) and k in range(3)):
                raise InvalidDecomposition(
                    f"boundary generator {g!r} names pants {p!r} slot {k!r}, "
                    "not a slot of the decomposition")
            boundary.append((p, k))
            gens.append(g)
        elif role.get("kind") != "stable":
            raise InvalidDecomposition(f"unknown role {role!r} for {g!r}")
    missing = [g for g in pd.generators if g not in gens]
    if missing:
        raise InvalidDecomposition(
            f"generators {missing} are the stable letter of no cuff")
    slots = np.array([[column[e.cuff] for e in pants.cuff_ends]
                      for pants in pd.pants], dtype=int)
    return fn.root, slots, tree, stable, boundary, gens


def _cuff_row(pd: PantsDecomposition, values, what: str) -> list[complex]:
    """One complex value per cuff, in the order of pd.cuffs, from a dict
    keyed by cuff id or a sequence aligned with pd.cuffs; a missing,
    surplus or non-finite value raises NonHyperbolicParameters."""
    if isinstance(values, dict):
        missing = [c.id for c in pd.cuffs if c.id not in values]
        if missing:
            raise NonHyperbolicParameters(f"missing {what} for cuffs {missing}")
        row = [complex(values[c.id]) for c in pd.cuffs]
    else:
        row = [complex(v) for v in values]
        if len(row) != len(pd.cuffs):
            raise NonHyperbolicParameters(
                f"expected {len(pd.cuffs)} {what} values, got {len(row)}")
    for cuff, v in zip(pd.cuffs, row):
        if not cmath.isfinite(v):
            raise NonHyperbolicParameters(
                f"{what} of cuff {cuff.id!r} is {v}, not finite")
    return row


def _glue(pd: PantsDecomposition, params, ts=None) -> np.ndarray:
    """fenchel_nielsen_rep at every (lengths, twists) of params, in one
    stacked pass (_glue_rows) over all samples: the images of
    pd.generators, (2, 2, generators, samples).  A failure raises at the
    first failing sample, and there the scalar construction's first
    failing guard: the length and twist tables, the pants, the frames
    and generators in gluing order, the relator residual, then the cuff
    traces.  With the sample times ts, its message ends with the sample
    and its time.  Other errors that params raises propagate at once."""
    plan = _gluing(pd)
    rows, late = [], None
    try:
        for lengths, twists in params:
            rows.append(_cuff_row(pd, lengths, "length")
                        + _cuff_row(pd, twists, "twist"))
    except PleatbendError as exc:   # raised once the samples before it pass
        late = exc
    z = np.array(rows, dtype=complex).reshape(len(rows), 2 * len(pd.cuffs))
    glued, failure = _glue_rows(pd, plan, z[:, :len(pd.cuffs)],
                                z[:, len(pd.cuffs):])
    if failure is None and late is not None:
        failure = len(rows), late
    if failure is None:
        return glued
    k, exc = failure
    if ts is not None:
        exc = type(exc)(f"{exc} at sample {k} (t={float(ts[k])!r})")
    raise exc


def _glue_rows(pd: PantsDecomposition, plan: tuple, lam: np.ndarray,
               twist: np.ndarray) -> tuple:
    """The gluing pass at lengths and twists (n, cuffs): (the images of
    pd.generators, (2, 2, generators, n), None), or (None, (k, error))
    for the first failing sample k.  Every guard is evaluated at every
    sample; the values at a sample past its first failing guard mean
    nothing."""
    root, slots, tree, stable, boundary, gens = plan
    n, npants = len(lam), len(pd.pants)
    guards = []           # (mask (n,), error at sample k), in guard order
    with np.errstate(all="ignore"):
        # raw boundary triples; gluing frames are always taken on these,
        # so frame normalization noise cannot leak twist between cuffs
        ls = lam[:, slots]
        triples, negative, periodic, degenerate = _pants_triples(ls)
        for p in range(npants):
            for j in range(3):
                guards.append((negative[:, p, j], lambda k, p=p, j=j:
                               NonHyperbolicParameters(
                                   f"cuff length {complex(ls[k, p, j])} has "
                                   f"negative real part (pants {p})")))
            guards.append((periodic[:, p], lambda k, p=p:
                           NonHyperbolicParameters(
                               f"first cuff length {complex(ls[k, p, 0])} is "
                               f"a multiple of 2 pi i (pants {p})")))
            guards.append((degenerate[:, p], lambda k, p=p:
                           NonHyperbolicParameters(
                               "degenerate cuff length triple ({}, {}, {}) "
                               "(pants {})".format(*map(complex, ls[k, p]),
                                                   p))))
        frames, flat = _normal_frames(triples, ls)
        twists = _twist_matrices(twist)

        def frame_guard(slot):
            guards.append((flat[:, slot[0], slot[1]], lambda k:
                           NonHyperbolicParameters("eigenframe degenerate")))

        def frames_at(slots):
            ps, ks = np.array(slots, dtype=int).T
            return frames[:, ps, ks]

        conj = np.empty((n, npants, 2, 2), dtype=complex)
        conj[:, root] = np.eye(2)
        if tree:
            cols, parents, children = zip(*tree)
            G = _unit_det_modulus(frames_at(parents) @ _R @ twists[:, cols]
                                  @ _adj(frames_at(children)))
            for i, (_, parent, child) in enumerate(tree):
                frame_guard(parent)
                frame_guard(child)
                conj[:, child[0]] = conj[:, parent[0]] @ G[:, i]

        images = []
        if stable:
            cols, plus, minus = zip(*stable)
            S = (frames_at(minus) @ _R @ twists[:, cols]
                 @ _adj(frames_at(plus)))
            cp = conj[:, [p for p, _ in plus]]
            cm = conj[:, [p for p, _ in minus]]
            images.append(cm @ _unit_det_modulus(S)
                          @ (_adj(cp) / _det(cp)[..., None, None]))
        if boundary:
            ps, ks = np.array(boundary, dtype=int).T
            images.append(_conjugated(conj[:, ps], triples[:, ps, ks]))
        z = np.concatenate(images, axis=1).transpose(2, 3, 1, 0)
        *images, det, singular = _normalized(z.real, z.imag)
        images, det = _complex(*images), _complex(*det)
        for i in range(len(gens)):      # a stable letter's frames first
            if i < len(stable):
                frame_guard(stable[i][1])
                frame_guard(stable[i][2])
            guards.append((singular[i], lambda k, i=i: SingularMatrix(
                f"determinant {det[i, k]!r} too small")))

        # the postconditions, on the images as built
        stack = _word_images(gens, images,
                             pd.relators + tuple(c.word for c in pd.cuffs))
        nrel = len(pd.relators)
        dist = np.where(stack.ok[:nrel],
                        stack.take(slice(0, nrel)).distance_to_identity(),
                        np.nan)
        res = dist.max(axis=0) if nrel else np.zeros(n)
        guards.append((~(res <= 1e-6), lambda k: PleatbendError(
            f"gluing postcondition failed: relator residual {res[k]:.3e}")))
        t2 = _complex(*stack.take(slice(nrel, None)).trace_squared())
        h = np.cosh(_cdiv(lam, 2)).T
        want = _cmul(4, _cmul(h, h))
        off = ~(_modulus(t2 - want) <= 1e-6 * (1 + _modulus(want)))
        off |= ~stack.ok[nrel:]
        for c, cuff in enumerate(pd.cuffs):
            guards.append((off[c], lambda k, c=c, cid=cuff.id: PleatbendError(
                f"gluing postcondition failed: cuff {cid!r} trace "
                f"{complex(t2[c, k]):.6g} vs requested "
                f"{complex(want[c, k]):.6g}")))

    failing = np.array([mask for mask, _ in guards])
    bad = failing.any(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        return None, (k, guards[int(np.argmax(failing[:, k]))][1](k))
    return images[:, :, [gens.index(g) for g in pd.generators]], None


def fenchel_nielsen_rep(pd: PantsDecomposition, lengths,
                        twists) -> Representation:
    """Representation with prescribed cuff lengths and twist-bends.

    lengths and twists are dicts keyed by cuff id (or sequences aligned
    with pd.cuffs); a length is the complex translation length of the
    cuff (purely imaginary = elliptic cuff), a twist s = tau + i theta
    combines shearing tau with bending theta.  Requires the gluing
    recipe attached by standard_decomposition (or an equivalent one in
    the decomposition file).  The one-sample case of the stacked pass
    that path_from_parameters runs.  Raises NonHyperbolicParameters
    for a missing or non-finite parameter and where the construction
    degenerates, and PleatbendError when the result misses the gluing
    postcondition: a relator residual above 1e-6 or a cuff trace^2
    further than 1e-6 (1 + |requested|) from the requested one.
    """
    return _rep_at(pd.generators, _glue(pd, [(lengths, twists)]), 0,
                   pd.relators)


# ---------------------------------------------------------------------------
# parameter paths


@dataclass(frozen=True, eq=False)
class RepresentationPath:
    """Finitely sampled path of representations on a common generator set:
    the image of every generator at every sample in one read-only numeric
    array, matrices (2, 2, generators, samples), each [[a, b], [c, d]] of
    determinant 1.  rep(k) and reps build Representations on demand."""

    ts: tuple[float, ...]
    generators: tuple[str, ...]
    matrices: np.ndarray
    relators: tuple[str, ...] = ()
    pd: PantsDecomposition | None = None

    def __post_init__(self):
        if self.matrices.shape != (2, 2, len(self.generators), len(self.ts)):
            raise PleatbendError("one representation per sample time required")
        if self.matrices.dtype.kind not in "biufc":
            raise PleatbendError(
                f"matrices must hold numbers, not {self.matrices.dtype}")
        if not self.generators:
            raise PleatbendError("a path needs at least one generator")
        _check_distinct(self.generators)
        if len(self.ts) < 2:
            raise PleatbendError("a path needs at least two samples")
        for k, t in enumerate(self.ts):
            if not cmath.isfinite(t):
                raise PleatbendError(f"sample {k} has time {t}, not finite")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise PleatbendError("sample times must increase strictly")
        self.matrices.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ts)

    def rep(self, k: int) -> Representation:
        """The representation at sample k."""
        return _rep_at(self.generators, self.matrices, k, self.relators)

    @property
    def reps(self) -> tuple[Representation, ...]:
        """The representation at every sample."""
        return tuple(map(self.rep, range(len(self))))

    def index_of(self, t: float) -> int:
        diffs = [abs(s - t) for s in self.ts]
        k = diffs.index(min(diffs))
        span = self.ts[-1] - self.ts[0]
        if not diffs[k] <= 1e-9 * max(1.0, span):     # NaN included
            raise PleatbendError(f"t={t} is not a sample time of this path")
        return k

    def continuity(self) -> float:
        """Largest generator jump between consecutive samples, in
        MoebiusMap.distance_to."""
        m0, m1 = self.matrices[..., :-1], self.matrices[..., 1:]
        plus, minus = (np.sum(np.abs(d) ** 2, axis=(0, 1))
                       for d in (m1 - m0, m1 + m0))
        return float(np.sqrt(np.minimum(plus, minus)).max(initial=0.0))

    def reversed(self) -> "RepresentationPath":
        t0, t1 = self.ts[0], self.ts[-1]
        ts = tuple(t0 + t1 - t for t in reversed(self.ts))
        return replace(self, ts=ts, matrices=self.matrices[..., ::-1])


def _check_distinct(generators) -> None:
    """Raise PleatbendError naming the first generator listed twice: a
    file keeps one image per name."""
    if len(set(generators)) < len(generators):
        twice = next(g for k, g in enumerate(generators)
                     if g in generators[:k])
        raise PleatbendError(f"generator {twice!r} is listed twice")


def _rep_at(generators, matrices: np.ndarray, k: int,
            relators=()) -> Representation:
    """Sample k of matrices, (2, 2, generators, samples), as a
    Representation holding its entries as they are."""
    entries = matrices[..., k].reshape(4, -1).T.tolist()
    return Representation(tuple(generators), tuple(
        MoebiusMap._raw(*e) for e in entries), tuple(relators))


def _matrices_of(reps) -> np.ndarray:
    """The images of the generators of reps[0] at every representation,
    (2, 2, generators, samples), looked up by name; a representation
    lacking one raises UnknownLetter naming it and the sample."""
    gens, tables = reps[0].generators, [rep.image_of for rep in reps]
    for k, g in ((k, g) for k, t in enumerate(tables) for g in gens
                 if g not in t):
        raise UnknownLetter(f"no image for generator {g!r} at sample {k}")
    z = np.array([[t[g].rows() for g in gens] for t in tables], complex)
    return z.reshape(len(reps), len(gens), 2, 2).transpose(2, 3, 1, 0)


def path_from_parameters(pd: PantsDecomposition, lengths_at, twists_at,
                         steps: int = 64, t0: float = 0.0,
                         t1: float = 1.0) -> RepresentationPath:
    """Sample fenchel_nielsen_rep along t -> (lengths_at(t), twists_at(t)),
    every sample glued in one stacked pass.  A failure is the first
    failing sample's, its message ending with "at sample k (t=...)"."""
    ts = np.linspace(t0, t1, steps + 1)
    matrices = _glue(pd, ((lengths_at(t), twists_at(t)) for t in ts), ts)
    return RepresentationPath(ts=tuple(float(t) for t in ts),
                              generators=pd.generators, matrices=matrices,
                              relators=pd.relators, pd=pd)


def path_from_reps(reps, ts=None, pd=None) -> RepresentationPath:
    """The path through reps, on the generators and relators of the
    first; every other representation is read by generator name."""
    reps = tuple(reps)
    if len(reps) < 2:
        raise PleatbendError("a path needs at least two samples")
    if ts is None:
        ts = np.linspace(0.0, 1.0, len(reps))
    return RepresentationPath(ts=tuple(float(t) for t in ts),
                              generators=reps[0].generators,
                              matrices=_matrices_of(reps),
                              relators=reps[0].relators, pd=pd)


# ---------------------------------------------------------------------------
# smoothness of the peripheral character map

def _common_fixed_point_tol(rep: Representation, tol: float) -> bool:
    """Whether the images share a fixed point within chordal distance
    tol.  Images within max(tol, EPS_CLASS) of the identity are skipped.
    The others are not classified: each gives the eigenvector of tr / 2
    where |tr^2 - 4| < EPS_CLASS, else those of both eigenvalues, in no
    order.  Scalar, as jacobian_rank calls it once per representation,
    where a one-column MoebiusArray read costs ten times as much."""
    bound = max(tol, EPS_CLASS)
    ident = MoebiusMap.identity()
    fixed_sets = []
    for m in rep.images:
        if m.distance_to(ident) < bound:
            continue
        tr = m.trace
        t2 = tr * tr
        if not cmath.isfinite(t2):
            raise SingularMatrix(f"squared trace {t2} is not finite")
        if abs(t2 - 4.0) < EPS_CLASS:
            mus = (tr / 2.0,)
        else:
            disc = cmath.sqrt(t2 - 4.0)
            mus = ((tr + disc) / 2.0, (tr - disc) / 2.0)
        points = []
        for mu in mus:      # the larger of (b, mu - a) and (mu - d, c)
            v1, v2 = (m.b, mu - m.a), (mu - m.d, m.c)
            n1, n2 = (abs(x) * abs(x) + abs(y) * abs(y) for x, y in (v1, v2))
            points.append(_unit(*(v1 if n1 >= n2 else v2)))
        fixed_sets.append(points)
    if not fixed_sets:
        return True          # all generators central
    for z1, z2 in fixed_sets[0]:
        if all(min(2.0 * abs(z1 * w2 - z2 * w1) for w1, w2 in pts) < tol
               for pts in fixed_sets[1:]):
            return True
    return False


def _entry_product(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


_ONE = (1 + 0j, 0j, 0j, 1 + 0j)


def _squared_trace_jacobian(rep: Representation, words) -> np.ndarray:
    """Exact derivative of tr^2 rho(w) along left translations.

    Row k, column 3i + j is d/deps tr^2 rho_eps(words[k]) at eps = 0,
    where rho_eps(g_i) = exp(eps E_j) rho(g_i) for E_j in (H, E+, E-).
    For w = P g S the occurrence of g contributes 2 tr W tr(E g S P),
    an occurrence of g^-1 contributes -2 tr W tr(E S P g^-1), and
    tr(E M) is M00 - M11, M10 or M01.  With prefix products P_t and
    suffix products S_t of the letters, g S P is S_t P_t and S P g^-1
    is S_{t+1} P_{t+1}: one pass per word gives all 3n columns.
    Inverses are adjugates, as the stored images have determinant 1.
    """
    n = len(rep.generators)
    letters = [((m.a, m.b, m.c, m.d), (m.d, -m.b, -m.c, m.a))
               for m in rep.images]
    rows = []
    for plan in _word_plan(tuple(rep.generators), tuple(words)):
        prefix = [_ONE]
        for i, inv in plan:
            prefix.append(_entry_product(prefix[-1], letters[i][inv]))
        suffix = [_ONE]
        for i, inv in reversed(plan):
            suffix.append(_entry_product(letters[i][inv], suffix[-1]))
        suffix.reverse()
        w = prefix[-1]
        two_tr = 2 * (w[0] + w[3])
        row = [0j] * (3 * n)
        for t, (i, inv) in enumerate(plan):
            if inv:
                m = _entry_product(suffix[t + 1], prefix[t + 1])
                f = -two_tr
            else:
                m = _entry_product(suffix[t], prefix[t])
                f = two_tr
            col = 3 * i
            row[col] += f * (m[0] - m[3])
            row[col + 1] += f * m[2]
            row[col + 2] += f * m[1]
        rows.append(row)
    return np.array(rows, dtype=complex).reshape(len(rows), 3 * n)


def jacobian_rank(rep: Representation,
                  boundary: BoundaryInclusion) -> tuple[int, np.ndarray]:
    """Rank of the peripheral character map at a representation.

    Differentiates the squared-trace vector of all peripheral words
    exactly along left translations exp(eps E) rho(g) of each generator
    (three sl2 directions per generator, one prefix/suffix pass per
    word; see _squared_trace_jacobian) and counts singular values above
    EPS_RANK relative to the largest.  Squared traces are constant on
    conjugacy classes and the derivative is exact, so the Jacobian
    already vanishes on the conjugation directions up to rounding
    (about 1e-16 of its norm): no projection is needed, and there is no
    difference step to choose.  Returns (rank, singular values).
    Refuses reducible representations (generators with a common fixed
    point within REDUCIBLE_TOL), where the character map is singular for
    a different reason.
    """
    if _common_fixed_point_tol(rep, REDUCIBLE_TOL):
        raise ReducibleRepresentation(
            "generators share a fixed point within tolerance")
    J = _squared_trace_jacobian(rep, boundary.peripheral_words)
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0, sv
    rank = int(np.count_nonzero(sv > EPS_RANK * sv[0]))
    return rank, sv


def conjugacy_residual(rep1: Representation, rep2: Representation) -> float:
    """How far two representations are from being conjugate.

    For each sign pattern on the generators, stacks the linear system
    G rho1(g) = +- rho2(g) G and takes the smallest singular value over
    unit G; the minimum over patterns is 0 exactly for conjugate pairs
    (signs absorb the PSL lift ambiguity).
    """
    if rep1.generators != rep2.generators:
        raise PleatbendError("representations use different generator sets")
    n = len(rep1.generators)
    eye = np.eye(2, dtype=complex)
    best = np.inf
    for signs in itertools.product((1.0, -1.0), repeat=n):
        rows = []
        for s, m1, m2 in zip(signs, rep1.images, rep2.images):
            A = _mat(m1)
            B = _mat(m2)
            rows.append(np.kron(eye, A.T) - s * np.kron(B, eye))
        sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
        best = min(best, sv[-1])
    return float(best)


# ---------------------------------------------------------------------------
# serialization


def _matrix_parts(matrices: np.ndarray) -> np.ndarray:
    """[re, im] of every entry, row-major, of matrices (2, 2, generators,
    samples), as (samples, generators, 4, 2)."""
    parts = np.stack([matrices.real, matrices.imag], axis=-1)
    return parts.transpose(3, 2, 0, 1, 4).reshape(
        matrices.shape[3], matrices.shape[2], 4, 2)


def _matrices_dicts(generators, matrices: np.ndarray) -> list[dict]:
    """{generator: [[re, im] x 4]}, entries row-major, at every sample of
    matrices (2, 2, generators, samples)."""
    return [dict(zip(generators, sample))
            for sample in _matrix_parts(matrices).tolist()]


def _named(out: dict, generators, relators) -> dict:
    if tuple(generators) != tuple(sorted(generators)):
        out["generators"] = list(generators)
    if relators:
        out["relators"] = list(relators)
    return out


def rep_to_dict(rep: Representation) -> dict:
    [matrices] = _matrices_dicts(rep.generators, _matrices_of([rep]))
    return _named({"matrices": matrices}, rep.generators, rep.relators)


def _check_samples(samples: list, sample, single: bool) -> None:
    """ValueError naming the first part of samples not of the shape
    sample: samples[k] of a path file, or file itself, the one sample of
    a representation file, when single."""
    if single:
        _check_shape(samples[0], sample, "file")
    else:
        _check_shape(samples, [sample], "samples")


def _floats(value, shape: tuple, samples: list, sample: dict,
            single: bool = False) -> np.ndarray:
    """value, nested lists of numbers, as floats of the given shape, else
    ValueError naming the first part of samples not of the shape sample
    (_check_samples).  The lists are walked once, level by level.  A
    number is an int or a float: a boolean is none, although numpy reads
    it as 0 or 1 among numbers."""
    level = [value]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            break
        level = list(itertools.chain.from_iterable(level))
    else:
        a = np.array(level if set(map(type, level)) <= {int, float} else None)
        if a.dtype.kind in "iuf":
            return a.astype(float).reshape(shape)
    _check_samples(samples, sample, single)
    raise ValueError(f"samples hold no float numbers of shape {shape}")


def _parsed(data: dict, samples: list, single: bool = False) -> tuple:
    """The generators (listed, else the first sample's, sorted), relators
    and matrices (2, 2, generators, samples) of a document and its
    samples [{"matrices": {generator: [[re, im] x 4]}}], every matrix
    normalized at once as MoebiusMap(a, b, c, d) normalizes it, bit for
    bit.  A malformed sample raises ValueError, and a matrix that the
    constructor refuses SingularMatrix, naming the first such sample;
    single says that samples is [data], a representation file's one
    sample, which both errors name file (_check_samples)."""
    _check_shape(data, {"generators?": [str], "relators?": [str]}, "file")
    _check_samples(samples[:1], {"matrices": dict}, single)
    gens = tuple(data.get("generators")
                 or sorted(samples[0]["matrices"] if samples else ()))
    try:
        entries = [s["matrices"][g] for s in samples for g in gens]
    except (KeyError, TypeError):
        entries = None
    parts = _floats(entries, (len(samples) * len(gens), 4, 2), samples,
                    {"matrices": {g: [[_NUMBER] * 2] * 4 for g in gens}},
                    single)
    parts = parts.reshape(len(samples), len(gens), 2, 2, 2).transpose(
        2, 3, 1, 0, 4)                  # (2, 2, generators, samples, 2)
    *z, det, singular = _normalized(parts[..., 0], parts[..., 1])
    det = _complex(*det)
    with np.errstate(all="ignore"):
        # where the constructor raises: |det| < 1e-100, or abs overflows
        bad = singular | np.isfinite(det) & np.isinf(_modulus(det))
    for k, i in np.argwhere(bad.T)[:1].tolist():
        where = "in file" if single else f"at sample {k}"
        raise SingularMatrix(f"generator {gens[i]!r} {where} cannot be "
                             f"normalized: determinant {det[i, k]}")
    return gens, tuple(data.get("relators", ())), _complex(*z)


def rep_from_dict(data: dict) -> Representation:
    gens, relators, matrices = _parsed(data, [data], single=True)
    return _rep_at(gens, matrices, 0, relators)


def path_to_dict(path: RepresentationPath) -> dict:
    samples = _matrices_dicts(path.generators, path.matrices)
    return _named({"samples": [{"t": t, "matrices": m}
                               for t, m in zip(path.ts, samples)]},
                  path.generators, path.relators)


def path_from_dict(data: dict, pd: PantsDecomposition | None = None) -> RepresentationPath:
    _check_shape(data, {"samples": list}, "file")
    samples = data["samples"]
    gens, relators, matrices = _parsed(data, samples)
    ts = _floats([s.get("t") for s in samples], (len(samples),), samples,
                 {"t": _NUMBER})
    return RepresentationPath(tuple(ts.tolist()), gens, matrices, relators,
                              pd)


def load_rep(path: str) -> Representation:
    with open(path) as fh:
        return rep_from_dict(json.load(fh))


def save_rep(path: str, rep: Representation) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(rep_to_dict(rep), indent=2, sort_keys=True)
                 + "\n")


def load_path(path: str, pd: PantsDecomposition | None = None) -> RepresentationPath:
    with open(path) as fh:
        return path_from_dict(json.load(fh), pd=pd)


# samples save_path spells at once: a number's string object takes about
# 70 bytes, three times its text, so only one chunk of them is held
_SPELL_CHUNK = 64


def _key(name) -> str:
    """name as json.dumps spells it as a key, with % doubled for a
    %-template."""
    return json.dumps({name: 0})[1:-4].replace("%", "%%")


def _sample_template(generators) -> str:
    """One sample of a path file, laid out as json.dumps(indent=2,
    sort_keys=True) lays it out in the "samples" list, with a %s for
    each number: the [re, im] of each entry of each generator, in
    sorted name order, then t."""
    pair = "\n          [\n            %s,\n            %s\n          ]"
    image = "[" + ",".join([pair] * 4) + "\n        ]"
    images = ",".join(f"\n        {_key(g)}: {image}"
                      for g in sorted(generators))
    return ('    {\n      "matrices": {' + images
            + '\n      },\n      "t": %s\n    }')


def _path_text(rpath: RepresentationPath) -> str:
    """json.dumps(path_to_dict(rpath), indent=2, sort_keys=True) + "\n",
    its numbers spelled by the C encoder: json.dumps of a flat list,
    _SPELL_CHUNK samples at a time, split on ", " into a %-template."""
    gens, ts = rpath.generators, rpath.ts
    order = sorted(range(len(gens)), key=gens.__getitem__)
    values = _matrix_parts(rpath.matrices)[:, order].reshape(len(ts), -1)
    template = _sample_template(gens)
    # "samples" sorts after "generators" and "relators": the head is the
    # document up to its value
    head = json.dumps(_named({"samples": 0}, gens, rpath.relators),
                      indent=2, sort_keys=True)[:-3]
    pieces = [head + "[\n"]
    for k in range(0, len(ts), _SPELL_CHUNK):
        rows = values[k:k + _SPELL_CHUNK].tolist()
        for row, t in zip(rows, ts[k:k + _SPELL_CHUNK]):
            row.append(t)
        numbers = json.dumps(list(itertools.chain.from_iterable(rows)))
        pieces += [",\n".join([template] * len(rows))
                   % tuple(numbers[1:-1].split(", ")), ",\n"]
    pieces[-1] = "\n  ]\n}\n"
    return "".join(pieces)


def save_path(path: str, rpath: RepresentationPath) -> None:
    """Write rpath to path: the bytes of json.dumps(path_to_dict(rpath),
    indent=2, sort_keys=True) + "\n", in one write."""
    text = _path_text(rpath)
    with open(path, "w") as fh:
        fh.write(text)
