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
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidDecomposition, NonHyperbolicParameters,
                     PleatbendError, ReducibleRepresentation, SingularMatrix,
                     UnknownLetter)
from .moebius import (EPS_CLASS, MoebiusMap, chordal, fixed_points,
                      trace_squared)
from .topology import BoundaryInclusion, PantsDecomposition, _tokens

EPS_RANK = 1e-8        # singular values counted, relative to the largest
REDUCIBLE_TOL = 1e-8   # chordal distance of a common fixed point


@dataclass(frozen=True)
class Representation:
    generators: tuple[str, ...]
    images: tuple[MoebiusMap, ...]
    relators: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.generators) != len(self.images):
            raise InvalidDecomposition("one image per generator required")

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


def fingerprint(rep: Representation, words) -> CharacterFingerprint:
    """The squared traces of words at rep.  A word whose tr^2 is not
    finite raises SingularMatrix: no distance could be taken from it."""
    words = tuple(words)
    vals = tuple(trace_squared(evaluate_word(rep, w)) for w in words)
    for w, t2 in zip(words, vals):
        if not cmath.isfinite(t2):
            raise SingularMatrix(
                f"squared trace {t2} of word {w!r} is not finite")
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
    and evaluated there.
    """
    words = []
    for comp in boundary.components:
        for w in comp.peripheral_words:
            words.append(comp.include_word(w))
    return fingerprint(rep, words)


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
                          spread: float = 1.0,
                          generators=("x", "y")) -> Representation:
    """Random irreducible two-generator representation.

    Trace triples are drawn until the commutator trace is well away
    from 2, which rules out reducible pairs.
    """
    while True:
        x, y, z = (complex(rng.normal(0, 2 * spread), rng.normal(0, spread))
                   for _ in range(3))
        if abs(commutator_trace(x, y, z) - 2) > 0.5:
            return rep_from_trace_triple(x, y, z, generators)


# ---------------------------------------------------------------------------
# Fenchel-Nielsen construction

_R = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def _mat(m: MoebiusMap) -> np.ndarray:
    return np.array(m.rows(), dtype=complex)


def _twist_matrix(s: complex) -> np.ndarray:
    # orientation chosen so that bending theta = Im s turns up as +theta
    # in the crossing angle at the cuff
    u = cmath.exp(-s / 2)
    return np.array([[u, 0.0], [0.0, 1 / u]], dtype=complex)


def _adj(m: np.ndarray) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def _conjugate(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return g @ x @ (_adj(g) / det)


def _half_trace(lam: complex) -> complex:
    return cmath.cosh(lam / 2)


def pants_triple(l1: complex, l2: complex, l3: complex,
                 label: str = "") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary matrices of one pair of pants with given cuff lengths.

    Returned matrices X1, X2, X3 satisfy X1 X2 X3 = I with
    tr X_k = -2 cosh(l_k / 2); X1 is diagonal.  Raises for parameters
    where the construction degenerates (l1 in 2 pi i Z, or negative
    translation lengths).
    """
    for lam in (l1, l2, l3):
        if lam.real < -1e-12:
            raise NonHyperbolicParameters(
                f"cuff length {lam} has negative real part {label}")
    u = cmath.exp(l1 / 2)
    denom = u - 1 / u
    if abs(denom) < 1e-9:
        raise NonHyperbolicParameters(
            f"first cuff length {l1} is a multiple of 2 pi i {label}")
    t2 = -2 * _half_trace(l2)
    p = (2 * _half_trace(l3) + 2 * _half_trace(l2) / u) / denom
    s = t2 - p
    q = p * s - 1
    if abs(q) < 1e-9:
        raise NonHyperbolicParameters(
            f"degenerate cuff length triple ({l1}, {l2}, {l3}) {label}")
    X1 = np.array([[-u, 0.0], [0.0, -1 / u]], dtype=complex)
    X2 = np.array([[p, q], [1.0, s]], dtype=complex)
    X3 = _adj(X1 @ X2)           # inverse of a determinant-one product
    return X1, X2, X3


def normal_frame(m: np.ndarray, lam: complex) -> np.ndarray:
    """Eigenframe P with P^-1 m P = diag(-e^{lam/2}, -e^{-lam/2}).

    The eigenvalues are supplied, not extracted, so the frame varies
    smoothly along parameter paths.  Columns are kept unnormalized
    except for a positive real rescale; the determinant is rotated to
    the right half plane, which keeps frames of real matrices real.
    """
    target = -2 * _half_trace(lam)
    if abs((m[0, 0] + m[1, 1]) - target) > abs((m[0, 0] + m[1, 1]) + target):
        m = -m
    mup = -cmath.exp(lam / 2)
    mum = -cmath.exp(-lam / 2)
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    scale = abs(a) + abs(d) + 1
    # the frame determinant is +-2 * entry * sinh(lam/2); the column-sign
    # flip is keyed to the entry, not the raw determinant, so that near
    # elliptic target lengths (sinh almost imaginary) the choice does
    # not chatter on roundoff
    flip = False
    if abs(b) >= abs(c) and abs(b) > 1e-14 * scale:
        vp, vm = (b, mup - a), (b, mum - a)
        flip = b.real < 0 or (b.real == 0 and b.imag < 0)
    elif abs(c) > 1e-14 * scale:
        vp, vm = (mup - d, c), (mum - d, c)
        flip = c.real > 0 or (c.real == 0 and c.imag > 0)
    elif abs(a - mup) <= abs(a - mum):
        vp, vm = (1.0, 0.0), (0.0, 1.0)
    else:
        vp, vm = (0.0, 1.0), (-1.0, 0.0)
    P = np.array([[vp[0], vm[0]], [vp[1], vm[1]]], dtype=complex)
    if flip:
        P[:, 1] *= -1
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    if abs(det) < 1e-30:
        raise NonHyperbolicParameters("eigenframe degenerate")
    return P / abs(det) ** 0.5


def _cuff_table(pd: PantsDecomposition, values, what: str) -> dict[str, complex]:
    if isinstance(values, dict):
        table = {k: complex(v) for k, v in values.items()}
        missing = [c.id for c in pd.cuffs if c.id not in table]
        if missing:
            raise NonHyperbolicParameters(f"missing {what} for cuffs {missing}")
        return table
    values = list(values)
    if len(values) != len(pd.cuffs):
        raise NonHyperbolicParameters(
            f"expected {len(pd.cuffs)} {what} values, got {len(values)}")
    return {c.id: complex(v) for c, v in zip(pd.cuffs, values)}


def fenchel_nielsen_rep(pd: PantsDecomposition, lengths,
                        twists) -> Representation:
    """Representation with prescribed cuff lengths and twist-bends.

    lengths and twists are dicts keyed by cuff id (or sequences aligned
    with pd.cuffs); a length is the complex translation length of the
    cuff (purely imaginary = elliptic cuff), a twist s = tau + i theta
    combines shearing tau with bending theta.  Requires the gluing
    recipe attached by standard_decomposition (or an equivalent one in
    the decomposition file).  Raises PleatbendError when the result
    misses the gluing postcondition: a relator residual or a cuff
    trace^2 error above 1e-6.
    """
    fn = pd.fenchel_nielsen
    if fn is None:
        raise InvalidDecomposition(
            "decomposition carries no gluing recipe; build it with "
            "standard_decomposition or add a fenchel_nielsen block")
    lam = _cuff_table(pd, lengths, "length")
    twist = _cuff_table(pd, twists, "twist")

    # raw boundary triples; gluing frames are always taken on these, so
    # frame normalization noise cannot leak twist between cuffs
    triples: list[tuple[np.ndarray, ...]] = []
    for p, pants in enumerate(pd.pants):
        ls = [lam[e.cuff] for e in pants.cuff_ends]
        triples.append(pants_triple(*ls, label=f"(pants {p})"))

    tree = set(fn.tree_cuffs)
    plus_end = {}
    minus_end = {}
    for cuff in pd.cuffs:
        plus_end[cuff.id], minus_end[cuff.id] = pd.signed_ends_of(cuff.id)

    def unit_det(m: np.ndarray) -> np.ndarray:
        return m / abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) ** 0.5

    # accumulate one conjugation per pants along the spanning tree
    conj: dict[int, np.ndarray] = {fn.root: np.eye(2, dtype=complex)}
    pending = {c for c in tree}
    progress = True
    while pending and progress:
        progress = False
        for cid in sorted(pending):
            (pp, kp), (pm, km) = plus_end[cid], minus_end[cid]
            for e in (pd.pants[pp].cuff_ends[kp], pd.pants[pm].cuff_ends[km]):
                if e.conjugator:
                    raise InvalidDecomposition(
                        f"tree cuff {cid!r} has a conjugated end; gluing "
                        "recipe requires plain tree ends")
            if (pp in conj) == (pm in conj):
                continue
            parent, kpar = (pp, kp) if pp in conj else (pm, km)
            child, kch = (pm, km) if pp in conj else (pp, kp)
            P_par = normal_frame(triples[parent][kpar], lam[cid])
            P_ch = normal_frame(triples[child][kch], lam[cid])
            G = P_par @ _R @ _twist_matrix(twist[cid]) @ _adj(P_ch)
            conj[child] = conj[parent] @ unit_det(G)
            pending.discard(cid)
            progress = True
    if pending:
        raise InvalidDecomposition(
            f"gluing tree does not reach all pants (stuck on {sorted(pending)})")

    def placed(p: int, k: int) -> np.ndarray:
        return _conjugate(conj[p], triples[p][k])

    # stable letters for the remaining cuffs
    roles = fn.generator_roles
    stable_gen = {}
    for g, role in roles.items():
        if role.get("kind") == "stable":
            stable_gen[role["cuff"]] = g
    images: dict[str, MoebiusMap] = {}
    for cuff in pd.cuffs:
        cid = cuff.id
        if cid in tree:
            continue
        if cid not in stable_gen:
            raise InvalidDecomposition(
                f"cuff {cid!r} is not a tree edge and has no stable letter")
        (pp, kp), (pm, km) = plus_end[cid], minus_end[cid]
        if pd.pants[pp].cuff_ends[kp].conjugator != "":
            raise InvalidDecomposition(
                f"positive end of cuff {cid!r} must carry no conjugator")
        if pd.pants[pm].cuff_ends[km].conjugator != stable_gen[cid]:
            raise InvalidDecomposition(
                f"negative end of cuff {cid!r} must be conjugated by its "
                f"stable letter {stable_gen[cid]!r}")
        P_plus = normal_frame(triples[pp][kp], lam[cid])
        P_minus = normal_frame(triples[pm][km], lam[cid])
        S_raw = P_minus @ _R @ _twist_matrix(twist[cid]) @ _adj(P_plus)
        cm, cp = conj[pm], conj[pp]
        det_cp = cp[0, 0] * cp[1, 1] - cp[0, 1] * cp[1, 0]
        S = cm @ unit_det(S_raw) @ (_adj(cp) / det_cp)
        images[stable_gen[cid]] = MoebiusMap(S[0, 0], S[0, 1], S[1, 0], S[1, 1])

    for g in pd.generators:
        role = roles.get(g)
        if role is None:
            raise InvalidDecomposition(f"generator {g!r} has no gluing role")
        if role.get("kind") == "boundary":
            m = placed(role["pants"], role["slot"])
            images[g] = MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        elif role.get("kind") != "stable":
            raise InvalidDecomposition(f"unknown role {role!r} for {g!r}")

    rep = Representation(generators=pd.generators,
                         images=tuple(images[g] for g in pd.generators),
                         relators=pd.relators)
    res = rep.relator_residual()
    if res > 1e-6:
        raise PleatbendError(
            f"gluing postcondition failed: relator residual {res:.3e}")
    for cuff in pd.cuffs:
        m = evaluate_word(rep, cuff.word)
        want = 4 * _half_trace(lam[cuff.id]) ** 2
        t2 = trace_squared(m)
        if abs(t2 - want) > 1e-6 * (1 + abs(want)):
            raise PleatbendError(
                f"gluing postcondition failed: cuff {cuff.id!r} trace "
                f"{t2:.6g} vs requested {want:.6g}")
    return rep


# ---------------------------------------------------------------------------
# parameter paths


@dataclass(frozen=True)
class RepresentationPath:
    """Finitely sampled path of representations on a common generator set."""

    ts: tuple[float, ...]
    reps: tuple[Representation, ...]
    pd: PantsDecomposition | None = None

    def __post_init__(self):
        if len(self.ts) != len(self.reps):
            raise PleatbendError("one representation per sample time required")
        if len(self.ts) < 2:
            raise PleatbendError("a path needs at least two samples")
        for k, t in enumerate(self.ts):
            if not cmath.isfinite(t):
                raise PleatbendError(f"sample {k} has time {t}, not finite")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise PleatbendError("sample times must increase strictly")

    def __len__(self) -> int:
        return len(self.ts)

    def index_of(self, t: float) -> int:
        diffs = [abs(s - t) for s in self.ts]
        k = diffs.index(min(diffs))
        span = self.ts[-1] - self.ts[0]
        if diffs[k] > 1e-9 * max(1.0, span):
            raise PleatbendError(f"t={t} is not a sample time of this path")
        return k

    def continuity(self) -> float:
        """Largest generator jump between consecutive samples."""
        worst = 0.0
        for r0, r1 in zip(self.reps, self.reps[1:]):
            for m0, m1 in zip(r0.images, r1.images):
                worst = max(worst, m0.distance_to(m1))
        return worst

    def reversed(self) -> "RepresentationPath":
        t0, t1 = self.ts[0], self.ts[-1]
        ts = tuple(t0 + t1 - t for t in reversed(self.ts))
        return RepresentationPath(ts=ts, reps=tuple(reversed(self.reps)),
                                  pd=self.pd)


def path_from_parameters(pd: PantsDecomposition, lengths_at, twists_at,
                         steps: int = 64, t0: float = 0.0,
                         t1: float = 1.0) -> RepresentationPath:
    """Sample fenchel_nielsen_rep along t -> (lengths_at(t), twists_at(t))."""
    ts = np.linspace(t0, t1, steps + 1)
    reps = tuple(fenchel_nielsen_rep(pd, lengths_at(t), twists_at(t))
                 for t in ts)
    return RepresentationPath(ts=tuple(float(t) for t in ts), reps=reps,
                              pd=pd)


def path_from_reps(reps, ts=None, pd=None) -> RepresentationPath:
    reps = tuple(reps)
    if ts is None:
        ts = np.linspace(0.0, 1.0, len(reps))
    return RepresentationPath(ts=tuple(float(t) for t in ts), reps=reps,
                              pd=pd)


# ---------------------------------------------------------------------------
# smoothness of the peripheral character map

def _common_fixed_point_tol(rep: Representation, tol: float) -> bool:
    fixed_sets = []
    for m in rep.images:
        if m.is_identity(max(tol, EPS_CLASS)):
            continue
        pts = fixed_points(m)
        fixed_sets.append([p for p in pts if p is not None])
    if not fixed_sets:
        return True          # all generators central
    for candidate in fixed_sets[0]:
        if all(min(chordal(candidate, p) for p in pts) < tol
               for pts in fixed_sets[1:]):
            return True
    return False


def _mul(x: tuple, y: tuple) -> tuple:
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
    column = {}
    letter = {}
    for i, (g, m) in enumerate(zip(rep.generators, rep.images)):
        column[g] = 3 * i
        letter[g, False] = (m.a, m.b, m.c, m.d)
        letter[g, True] = (m.d, -m.b, -m.c, m.a)
    rows = []
    for word in words:
        tokens = _tokens(word)
        prefix = [_ONE]
        for tok in tokens:
            if tok not in letter:
                raise UnknownLetter(f"no image for generator {tok[0]!r}")
            prefix.append(_mul(prefix[-1], letter[tok]))
        suffix = [_ONE]
        for tok in reversed(tokens):
            suffix.append(_mul(letter[tok], suffix[-1]))
        suffix.reverse()
        w = prefix[-1]
        two_tr = 2 * (w[0] + w[3])
        row = [0j] * (3 * n)
        for t, (base, inv) in enumerate(tokens):
            if inv:
                m = _mul(suffix[t + 1], prefix[t + 1])
                f = -two_tr
            else:
                m = _mul(suffix[t], prefix[t])
                f = two_tr
            col = column[base]
            row[col] += f * (m[0] - m[3])
            row[col + 1] += f * m[2]
            row[col + 2] += f * m[1]
        rows.append(row)
    return np.array(rows, dtype=complex).reshape(len(rows), 3 * n)


def _conjugation_tangents(rep: Representation) -> np.ndarray:
    """Tangents of rho -> exp(eps E) rho exp(-eps E), E in (H, E+, E-).

    Column j holds, per generator g, the (00, 01, 10) entries of
    E - g E g^-1, in the coordinates of the columns of
    _squared_trace_jacobian.
    """
    rows = []
    for m in rep.images:
        a, b, c, d = m.a, m.b, m.c, m.d
        det = a * d - b * c
        rows.append((1 - (a * d + b * c) / det, a * c / det, -b * d / det))
        rows.append((2 * a * b / det, 1 - a * a / det, b * b / det))
        rows.append((-2 * c * d / det, c * c / det, 1 - d * d / det))
    return np.array(rows, dtype=complex)


def jacobian_rank(rep: Representation,
                  boundary: BoundaryInclusion) -> tuple[int, np.ndarray]:
    """Rank of the peripheral character map at a representation.

    Differentiates the squared-trace vector of all peripheral words
    exactly along left translations exp(eps E) rho(g) of each generator
    (three sl2 directions per generator, one prefix/suffix pass per
    word; see _squared_trace_jacobian), projects out the conjugation
    tangent directions, and counts singular values above EPS_RANK
    relative to the largest.  The derivative is exact, so there is no
    difference step to choose.  Returns (rank, singular values).
    Refuses reducible representations (generators with a common fixed
    point within REDUCIBLE_TOL), where the character map is singular for
    a different reason.
    """
    if _common_fixed_point_tol(rep, REDUCIBLE_TOL):
        raise ReducibleRepresentation(
            "generators share a fixed point within tolerance")
    words = [comp.include_word(w) for comp in boundary.components
             for w in comp.peripheral_words]
    J = _squared_trace_jacobian(rep, words)

    C = _conjugation_tangents(rep)
    u, sv_c, _ = np.linalg.svd(C, full_matrices=False)
    Q = u[:, sv_c > 1e-12 * max(sv_c[0], 1e-300)]
    J_proj = J - (J @ Q) @ Q.conj().T

    sv = np.linalg.svd(J_proj, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0, sv
    rank = int(np.sum(sv > EPS_RANK * sv[0]))
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


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _matrices_dict(rep: Representation) -> dict:
    return {g: [_complex_pair(z) for z in m.rows()[0] + m.rows()[1]]
            for g, m in zip(rep.generators, rep.images)}


def rep_to_dict(rep: Representation) -> dict:
    out = {"matrices": _matrices_dict(rep)}
    if rep.generators != tuple(sorted(rep.generators)):
        out["generators"] = list(rep.generators)
    if rep.relators:
        out["relators"] = list(rep.relators)
    return out


def _rep_from_matrices(matrices: dict, generators, relators) -> Representation:
    gens = tuple(generators) if generators else tuple(sorted(matrices))
    images = []
    for g in gens:
        entries = matrices[g]
        a, b, c, d = (complex(re, im) for re, im in entries)
        try:
            images.append(MoebiusMap(a, b, c, d))
        except OverflowError as exc:
            raise SingularMatrix(
                f"generator {g!r} cannot be normalized: {exc}") from None
    return Representation(generators=gens, images=tuple(images),
                          relators=tuple(relators))


def rep_from_dict(data: dict) -> Representation:
    return _rep_from_matrices(data["matrices"], data.get("generators"),
                              data.get("relators", ()))


def path_to_dict(path: RepresentationPath) -> dict:
    out = {"samples": [{"t": t, "matrices": _matrices_dict(r)}
                       for t, r in zip(path.ts, path.reps)]}
    gens = path.reps[0].generators
    if gens != tuple(sorted(gens)):
        out["generators"] = list(gens)
    if path.reps[0].relators:
        out["relators"] = list(path.reps[0].relators)
    return out


def path_from_dict(data: dict, pd: PantsDecomposition | None = None) -> RepresentationPath:
    gens = data.get("generators")
    relators = data.get("relators", ())
    ts = []
    reps = []
    for sample in data["samples"]:
        ts.append(float(sample["t"]))
        reps.append(_rep_from_matrices(sample["matrices"], gens, relators))
    return RepresentationPath(ts=tuple(ts), reps=tuple(reps), pd=pd)


def load_rep(path: str) -> Representation:
    with open(path) as fh:
        return rep_from_dict(json.load(fh))


def save_rep(path: str, rep: Representation) -> None:
    with open(path, "w") as fh:
        json.dump(rep_to_dict(rep), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_path(path: str, pd: PantsDecomposition | None = None) -> RepresentationPath:
    with open(path) as fh:
        return path_from_dict(json.load(fh), pd=pd)


def save_path(path: str, rpath: RepresentationPath) -> None:
    with open(path, "w") as fh:
        json.dump(path_to_dict(rpath), fh, indent=2, sort_keys=True)
        fh.write("\n")
