"""Combinatorics of pants decompositions and their spiral laminations.

A genus-g surface is described by a list of 3g-3 cuff curves (each with
a word in the surface-group generators) and 2g-2 pants, each naming its
three cuff ends.  A cuff end records which cuff it lies on, the sign
with which the cuff word appears there, and a conjugating word, so the
word carried by slot k of pants p is

    conjugator * cuff_word^sign * conjugator^-1 .

The bending locus of a pleated surface over the decomposition is a
finite lamination: the cuffs themselves and three spiral leaves per
pants, one between each pair of slots.  build_lamination lists those
leaves in the order the volume pipeline sums their Schlafli terms,
each with the cuffs whose endpoints its term reads.

Words are strings over tokens letter+digits ("a1", "b2", "x"); a token
whose first character is upper case is the inverse of the corresponding
lower-case generator ("A1" = inverse of "a1").
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import re
from dataclasses import dataclass

from .errors import InvalidDecomposition, UnknownLetter

_TOKEN = re.compile(r"[A-Za-z][0-9]*")


def parse_word(word: str) -> list[tuple[str, bool]]:
    """Split a word into (generator, is_inverse) pairs.

    >>> parse_word("a1B2")
    [('a1', False), ('b2', True)]
    """
    return list(_tokens(word))


@functools.cache
def _tokens(word: str) -> tuple[tuple[str, bool], ...]:
    """parse_word as a tuple, tokenized once per distinct word.

    The cache keeps every distinct word the process has parsed; words
    come from decompositions, inclusions and their products, a small
    set, so it is not bounded.
    """
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
    return tuple(tokens)


@functools.cache
def _word_plan(generators: tuple, words: tuple) -> tuple:
    """Each word as its letters' (generator index, is_inverse) pairs.
    The first letter, word by word, that is not a generator raises
    UnknownLetter.  Like _tokens, the cache is not bounded."""
    column = {g: i for i, g in enumerate(generators)}
    for base in (b for w in words for b, _ in _tokens(w)):
        if base not in column:
            raise UnknownLetter(f"no image for generator {base!r}")
    return tuple(tuple((column[b], inv) for b, inv in _tokens(w))
                 for w in words)


def invert_word(word: str) -> str:
    """The inverse word: reversed, with every letter's case flipped."""
    out = []
    for base, inv in reversed(_tokens(word)):
        out.append(base if inv else base[0].upper() + base[1:])
    return "".join(out)


def word_letters(word: str) -> set[str]:
    return {base for base, _ in _tokens(word)}


@dataclass(frozen=True)
class CuffEnd:
    cuff: str
    sign: int            # +1 or -1
    conjugator: str = ""


@dataclass(frozen=True)
class Pants:
    cuff_ends: tuple[CuffEnd, CuffEnd, CuffEnd]


@dataclass(frozen=True)
class Cuff:
    id: str
    word: str


@dataclass(frozen=True)
class FenchelNielsenData:
    """Gluing recipe attached to factory-built decompositions.

    root: index of the pants the gluing starts from; tree_cuffs: cuffs
    realized as tree edges of the gluing graph (the rest get stable
    letters); generator_roles: for each surface generator, either
    {"kind": "boundary", "pants": p, "slot": k} or
    {"kind": "stable", "cuff": c}.
    """

    root: int
    tree_cuffs: tuple[str, ...]
    generator_roles: dict


@dataclass(frozen=True)
class PantsDecomposition:
    genus: int
    generators: tuple[str, ...]
    relators: tuple[str, ...]
    cuffs: tuple[Cuff, ...]
    pants: tuple[Pants, ...]
    fenchel_nielsen: FenchelNielsenData | None = None

    def __post_init__(self):
        # frozen, so one check on construction holds for its lifetime
        self.validate()

    def cuff_index(self, cuff_id: str) -> int:
        for i, c in enumerate(self.cuffs):
            if c.id == cuff_id:
                return i
        raise InvalidDecomposition(f"unknown cuff {cuff_id!r}")

    def cuff(self, cuff_id: str) -> Cuff:
        return self.cuffs[self.cuff_index(cuff_id)]

    def ends_of(self, cuff_id: str) -> list[tuple[int, int]]:
        """All (pants index, slot) pairs lying on the given cuff."""
        out = []
        for p, pants in enumerate(self.pants):
            for k, end in enumerate(pants.cuff_ends):
                if end.cuff == cuff_id:
                    out.append((p, k))
        return out

    def signed_ends_of(self, cuff_id: str) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two ends of a cuff, positive-sign end first."""
        plus = minus = None
        for p, pants in enumerate(self.pants):
            for k, end in enumerate(pants.cuff_ends):
                if end.cuff == cuff_id:
                    if end.sign > 0:
                        plus = (p, k)
                    else:
                        minus = (p, k)
        if plus is None or minus is None:
            raise InvalidDecomposition(
                f"cuff {cuff_id!r} does not have one end of each sign")
        return plus, minus

    @functools.cached_property
    def slot_words(self) -> tuple[tuple[str, str, str], ...]:
        """Word carried by each slot, pants by pants, built once:
        conjugator * cuff^sign * conjugator^-1."""
        rows = []
        for pants in self.pants:
            row = []
            for end in pants.cuff_ends:
                core = self.cuff(end.cuff).word
                if end.sign < 0:
                    core = invert_word(core)
                if end.conjugator:
                    core = end.conjugator + core + invert_word(end.conjugator)
                row.append(core)
            rows.append(tuple(row))
        return tuple(rows)

    @functools.cached_property
    def crossing_words(self) -> dict[str, str]:
        """Cuff id -> the word that carries the plaque of the negative
        end of the cuff across it to the positive end, without winding:
        the positive end's conjugator times the inverse of the negative
        end's.  These are the only crossing words the pass evaluates:
        pleated.cuff_bending adds a winding's turns to their angle."""
        out = {}
        for cuff in self.cuffs:
            (pp, kp), (pm, km) = self.signed_ends_of(cuff.id)
            out[cuff.id] = (self.pants[pp].cuff_ends[kp].conjugator
                            + invert_word(self.pants[pm].cuff_ends[km]
                                          .conjugator))
        return out

    def validate(self) -> None:
        g = self.genus
        if g < 2:
            raise InvalidDecomposition(f"genus {g} < 2")
        if len(self.cuffs) != 3 * g - 3:
            raise InvalidDecomposition(
                f"expected {3 * g - 3} cuffs, got {len(self.cuffs)}")
        if len(self.pants) != 2 * g - 2:
            raise InvalidDecomposition(
                f"expected {2 * g - 2} pants, got {len(self.pants)}")
        ids = [c.id for c in self.cuffs]
        if len(set(ids)) != len(ids):
            raise InvalidDecomposition("duplicate cuff ids")
        for c in self.cuffs:
            ends = self.ends_of(c.id)
            if len(ends) != 2:
                raise InvalidDecomposition(
                    f"cuff {c.id!r} has {len(ends)} ends, expected 2")
            signs = sorted(self.pants[p].cuff_ends[k].sign for p, k in ends)
            if signs != [-1, 1]:
                raise InvalidDecomposition(
                    f"cuff {c.id!r} needs one +1 and one -1 end, got {signs}")
        for p, pants in enumerate(self.pants):
            for end in pants.cuff_ends:
                if end.cuff not in ids:
                    raise InvalidDecomposition(
                        f"pants {p} references unknown cuff {end.cuff!r}")
        # gluing graph connectivity
        seen = {0}
        frontier = [0]
        while frontier:
            p = frontier.pop()
            for end in self.pants[p].cuff_ends:
                for q, _ in self.ends_of(end.cuff):
                    if q not in seen:
                        seen.add(q)
                        frontier.append(q)
        if len(seen) != len(self.pants):
            raise InvalidDecomposition(
                f"gluing graph disconnected: reached {len(seen)} of {len(self.pants)} pants")


@dataclass(frozen=True)
class OrientationAssignment:
    """One orientation bit per cuff, aligned with the cuff list."""

    forward: tuple[bool, ...]


def enumerate_orientations(pd: PantsDecomposition) -> list[OrientationAssignment]:
    """All 2^(3g-3) orientation assignments, all-forward first."""
    n = len(pd.cuffs)
    return [OrientationAssignment(bits)
            for bits in itertools.product((True, False), repeat=n)]


@dataclass(frozen=True)
class Leaf:
    key: object                     # cuff id or (pants, leaf index)
    support: tuple[int, ...]        # indices of the cuffs its term reads


@dataclass(frozen=True)
class Lamination:
    leaves: tuple[Leaf, ...]
    pants_cuffs: tuple[tuple[int, ...], ...]   # distinct cuffs of each pants


def build_lamination(pd: PantsDecomposition) -> Lamination:
    """The leaves of the bending locus, cuffs first, then the spiral
    leaves pants by pants.

    Leaf (p, i) runs between slots i and i+1 (mod 3) of pants p.  A
    spiral leaf's angle and truncated length read the cuffs of its
    pants; a cuff's angle reads the cuffs of both pants next to it (the
    cuff itself among them); a cuff's length reads no endpoint.
    """
    index = {c.id: j for j, c in enumerate(pd.cuffs)}
    around = tuple(tuple(sorted({index[e.cuff] for e in pants.cuff_ends}))
                   for pants in pd.pants)
    leaves = []
    for c in pd.cuffs:
        (pp, _), (pm, _) = pd.signed_ends_of(c.id)
        leaves.append(Leaf(c.id, tuple(sorted({*around[pp], *around[pm]}))))
    for p, cuffs in enumerate(around):
        leaves += [Leaf((p, i), cuffs) for i in range(3)]
    return Lamination(leaves=tuple(leaves), pants_cuffs=around)


@dataclass(frozen=True)
class LeafCrossing:
    pants: int
    leaf: int            # spiral leaf index 0..2 within the pants
    direction: int = 1   # +-1, transverse orientation of the crossing


@dataclass(frozen=True)
class CuffCrossing:
    cuff: str
    winding: int = 0     # extra cuff powers picked up by the crossing arc
    direction: int = 1


@dataclass(frozen=True)
class TransverseArc:
    crossings: tuple

    def validate(self, pd: PantsDecomposition) -> None:
        cuff_ids = {c.id for c in pd.cuffs}
        for x in self.crossings:
            if isinstance(x, LeafCrossing):
                if not (0 <= x.pants < len(pd.pants) and 0 <= x.leaf < 3):
                    raise InvalidDecomposition(f"arc references missing leaf {x}")
            elif isinstance(x, CuffCrossing):
                if x.cuff not in cuff_ids:
                    raise InvalidDecomposition(f"arc references missing cuff {x.cuff!r}")
            else:
                raise InvalidDecomposition(f"unknown crossing entry {x!r}")


def subdivide_arc(arc: TransverseArc) -> list[TransverseArc]:
    """Cut an arc so that every piece crosses at most one cuff.

    The cut is made as late as possible: a new piece starts right before
    the crossing that would be a second cuff crossing.  Concatenating
    the pieces' crossing sequences reproduces the input exactly.
    """
    pieces: list[TransverseArc] = []
    current: list = []
    has_cuff = False
    for x in arc.crossings:
        if isinstance(x, CuffCrossing) and has_cuff:
            pieces.append(TransverseArc(tuple(current)))
            current = []
            has_cuff = False
        current.append(x)
        if isinstance(x, CuffCrossing):
            has_cuff = True
    pieces.append(TransverseArc(tuple(current)))
    return pieces


@dataclass(frozen=True)
class BoundaryComponent:
    """generator_words[i] is the image of surface_generators[i]; the
    constructor checks that the two align."""

    surface_generators: tuple[str, ...]
    generator_words: tuple[str, ...]
    peripheral_words: tuple[str, ...]

    def __post_init__(self):
        if len(self.surface_generators) != len(self.generator_words):
            raise InvalidDecomposition(
                "generator_words not aligned with surface generators")

    @property
    def mapping(self) -> dict[str, str]:
        return dict(zip(self.surface_generators, self.generator_words))

    def include_word(self, word: str) -> str:
        """Rewrite a word in surface letters through the inclusion."""
        mapping = self.mapping
        out = []
        for base, inv in _tokens(word):
            if base not in mapping:
                raise UnknownLetter(
                    f"letter {base!r} is not a surface generator of this component")
            image = mapping[base]
            out.append(invert_word(image) if inv else image)
        return "".join(out)


@dataclass(frozen=True)
class BoundaryInclusion:
    generators: tuple[str, ...]       # manifold group generators
    relators: tuple[str, ...]
    components: tuple[BoundaryComponent, ...]

    @functools.cached_property
    def peripheral_words(self) -> tuple[str, ...]:
        """Every component's peripheral words rewritten through its
        inclusion, in manifold letters, component by component; built
        once."""
        return tuple(comp.include_word(w) for comp in self.components
                     for w in comp.peripheral_words)


# ---------------------------------------------------------------------------
# standard decompositions


def _commutator_word(i: int) -> str:
    return f"a{i}b{i}A{i}B{i}"


def standard_decomposition(genus: int) -> PantsDecomposition:
    """The chain-of-handles decomposition of a genus-g surface.

    Generators a1, b1, .., ag, bg with the single relator
    [a1,b1]...[ag,bg].  Each handle contributes a pants H_i whose first
    two slots lie on the non-separating cuff a_i (glued to itself, the
    generator b_i passing through the handle); the third slots are
    chained together through separating cuffs: directly for genus 2,
    through a chain of connector pants B_1..B_{g-2} otherwise.
    """
    if genus < 2:
        raise InvalidDecomposition(f"genus {genus} < 2")
    g = genus
    generators = tuple(x for i in range(1, g + 1) for x in (f"a{i}", f"b{i}"))
    relator = "".join(_commutator_word(i) for i in range(1, g + 1))

    def partial(j: int) -> str:
        return "".join(_commutator_word(i) for i in range(1, j + 1))

    cuffs = [Cuff(id=f"a{i}", word=f"a{i}") for i in range(1, g + 1)]
    pants: list[Pants] = []
    if g == 2:
        cuffs.append(Cuff(id="w1", word=_commutator_word(1)))
        w_end_sign = {1: -1, 2: +1}
        for i in (1, 2):
            pants.append(Pants(cuff_ends=(
                CuffEnd(cuff=f"a{i}", sign=+1),
                CuffEnd(cuff=f"a{i}", sign=-1, conjugator=f"b{i}"),
                CuffEnd(cuff="w1", sign=w_end_sign[i]),
            )))
        tree_cuffs = ("w1",)
    else:
        cuffs += [Cuff(id=f"w{i}", word=_commutator_word(i)) for i in range(1, g + 1)]
        cuffs += [Cuff(id=f"x{j}", word=partial(j + 1)) for j in range(1, g - 2)]
        for i in range(1, g + 1):
            pants.append(Pants(cuff_ends=(
                CuffEnd(cuff=f"a{i}", sign=+1),
                CuffEnd(cuff=f"a{i}", sign=-1, conjugator=f"b{i}"),
                CuffEnd(cuff=f"w{i}", sign=-1),
            )))
        for j in range(1, g - 1):
            left = CuffEnd(cuff="w1" if j == 1 else f"x{j-1}", sign=+1)
            mid = CuffEnd(cuff=f"w{j+1}", sign=+1)
            right = CuffEnd(cuff=f"w{g}" if j == g - 2 else f"x{j}", sign=(+1 if j == g - 2 else -1))
            pants.append(Pants(cuff_ends=(left, mid, right)))
        tree_cuffs = tuple(f"w{i}" for i in range(1, g + 1)) + tuple(
            f"x{j}" for j in range(1, g - 2))

    roles: dict = {}
    for i in range(1, g + 1):
        roles[f"a{i}"] = {"kind": "boundary", "pants": i - 1, "slot": 0}
        roles[f"b{i}"] = {"kind": "stable", "cuff": f"a{i}"}
    fn = FenchelNielsenData(root=0, tree_cuffs=tree_cuffs, generator_roles=roles)
    return PantsDecomposition(genus=g, generators=generators,
                              relators=(relator,), cuffs=tuple(cuffs),
                              pants=tuple(pants), fenchel_nielsen=fn)


# ---------------------------------------------------------------------------
# JSON serialization


def decomposition_to_dict(pd: PantsDecomposition) -> dict:
    out = {
        "genus": pd.genus,
        "surface": {"generators": list(pd.generators),
                    "relators": list(pd.relators)},
        "cuffs": [{"id": c.id, "word": c.word} for c in pd.cuffs],
        "pants": [{"cuff_ends": [{"cuff": e.cuff, "sign": e.sign,
                                  "conjugator": e.conjugator}
                                 for e in p.cuff_ends]}
                  for p in pd.pants],
    }
    if pd.fenchel_nielsen is not None:
        fn = pd.fenchel_nielsen
        out["fenchel_nielsen"] = {
            "root": fn.root, "tree_cuffs": list(fn.tree_cuffs),
            "generator_roles": copy.deepcopy(fn.generator_roles)}
    return out


# decomposition documents, which may carry an inclusion (_check_shape)
_DOCUMENT = {
    "genus": int,
    "cuffs": [{"id": str, "word": str}],
    "pants": [{"cuff_ends": [{"cuff": str, "sign": int, "conjugator?": str}]}],
    "surface?": {"generators?": [str], "relators?": [str]},
    "fenchel_nielsen?": {"root": int, "tree_cuffs": [str],
                         "generator_roles": {"*": {"kind": str}}},
    "manifold?": {"generators": [str], "relators?": [str]},
    "boundary?": [{"surface_generators?": [str], "generator_words": [str],
                   "peripheral_words": [str]}],
}


def _check_shape(value, shape, where: str) -> None:
    """ValueError naming the first part of value (where) not of shape: a
    type or tuple of types, which a bool never is (JSON's true is no
    number); [item], a list of any length; [a, b, ...], a list of
    exactly those; or {key: shape}, an object holding every key but
    those ending in "?", with "*" for every key it holds."""
    if isinstance(shape, dict) and isinstance(value, dict):
        for key, sub in shape.items():
            name = key.rstrip("?")
            for k in value if key == "*" else [name] if name in value else ():
                _check_shape(value[k], sub, f"{where}[{k!r}]")
            if key == name != "*" and name not in value:
                raise ValueError(f"{where} has no {name!r}")
    elif isinstance(shape, list) and isinstance(value, list) and (
            len(shape) == 1 or len(value) == len(shape)):
        for i, item in enumerate(value):
            _check_shape(item, shape[min(i, len(shape) - 1)], f"{where}[{i}]")
    elif (isinstance(shape, (dict, list)) or not isinstance(value, shape)
          or isinstance(value, bool)):
        raise ValueError(f"{where} is malformed: {value!r}")


def decomposition_from_dict(data: dict) -> PantsDecomposition:
    _check_shape(data, _DOCUMENT, "document")
    cuffs = tuple(Cuff(id=c["id"], word=c["word"]) for c in data["cuffs"])
    pants = tuple(
        Pants(cuff_ends=tuple(CuffEnd(cuff=e["cuff"], sign=int(e["sign"]),
                                      conjugator=e.get("conjugator", ""))
                              for e in p["cuff_ends"]))
        for p in data["pants"])
    surface = data.get("surface", {})
    generators = tuple(surface.get("generators", ()))
    if not generators:
        letters: set[str] = set()
        for c in cuffs:
            letters |= word_letters(c.word)
        for p in pants:
            for e in p.cuff_ends:
                if e.conjugator:
                    letters |= word_letters(e.conjugator)
        generators = tuple(sorted(letters))
    fn = None
    if "fenchel_nielsen" in data:
        raw = data["fenchel_nielsen"]
        fn = FenchelNielsenData(
            root=int(raw["root"]), tree_cuffs=tuple(raw["tree_cuffs"]),
            generator_roles=copy.deepcopy(raw["generator_roles"]))
    return PantsDecomposition(genus=int(data["genus"]), generators=generators,
                              relators=tuple(surface.get("relators", ())),
                              cuffs=cuffs, pants=pants, fenchel_nielsen=fn)


def inclusion_to_dict(inc: BoundaryInclusion) -> dict:
    return {
        "manifold": {"generators": list(inc.generators),
                     "relators": list(inc.relators)},
        "boundary": [{"surface_generators": list(c.surface_generators),
                      "generator_words": list(c.generator_words),
                      "peripheral_words": list(c.peripheral_words)}
                     for c in inc.components],
    }


def inclusion_from_dict(data: dict,
                        default_surface_generators: tuple[str, ...] = ()) -> BoundaryInclusion:
    man = data["manifold"]
    comps = []
    for c in data.get("boundary", ()):
        sgens = tuple(c.get("surface_generators", default_surface_generators))
        comps.append(BoundaryComponent(
            surface_generators=sgens,
            generator_words=tuple(c["generator_words"]),
            peripheral_words=tuple(c["peripheral_words"])))
    return BoundaryInclusion(generators=tuple(man["generators"]),
                             relators=tuple(man.get("relators", ())),
                             components=tuple(comps))


def load_document(path: str) -> tuple[PantsDecomposition, BoundaryInclusion | None]:
    """Read a decomposition file, with optional manifold/boundary data."""
    with open(path) as fh:
        data = json.load(fh)
    pd = decomposition_from_dict(data)
    inc = None
    if "manifold" in data:
        inc = inclusion_from_dict(data, default_surface_generators=pd.generators)
    return pd, inc


def save_document(path: str, pd: PantsDecomposition,
                  inc: BoundaryInclusion | None = None) -> None:
    data = decomposition_to_dict(pd)
    if inc is not None:
        data.update(inclusion_to_dict(inc))
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
