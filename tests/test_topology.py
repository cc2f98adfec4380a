import importlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleatbend.errors import InvalidDecomposition, UnknownLetter
from pleatbend.topology import (BoundaryComponent, BoundaryInclusion,
                                CuffCrossing, LeafCrossing,
                                PantsDecomposition, TransverseArc,
                                build_lamination, decomposition_from_dict,
                                decomposition_to_dict, enumerate_orientations,
                                invert_word, load_document, parse_word,
                                save_document, standard_decomposition,
                                subdivide_arc)


class TestWords:
    def test_parse_basic(self):
        assert parse_word("a1b2A1") == [("a1", False), ("b2", False),
                                        ("a1", True)]

    def test_parse_single_letters(self):
        assert parse_word("xyX") == [("x", False), ("y", False), ("x", True)]

    def test_empty(self):
        assert parse_word("") == []

    def test_garbage_rejected(self):
        with pytest.raises(UnknownLetter):
            parse_word("a1*b2")
        with pytest.raises(UnknownLetter):
            parse_word("3a")

    def test_invert(self):
        assert invert_word("a1b2") == "B2A1"
        assert invert_word(invert_word("a1B2c3")) == "a1B2c3"

    @given(st.lists(st.sampled_from(["a1", "b1", "A1", "B1", "c2"]),
                    max_size=8).map("".join))
    def test_invert_involution(self, w):
        assert invert_word(invert_word(w)) == w


class TestStandardDecomposition:
    @pytest.mark.parametrize("genus", [2, 3, 4])
    def test_counts(self, genus):
        pd = standard_decomposition(genus)
        pd.validate()
        assert len(pd.cuffs) == 3 * genus - 3
        assert len(pd.pants) == 2 * genus - 2
        assert len(pd.generators) == 2 * genus

    def test_each_cuff_has_two_ends(self, genus=3):
        pd = standard_decomposition(genus)
        for cuff in pd.cuffs:
            (pp, sp), (pm, sm) = pd.signed_ends_of(cuff.id)
            assert pd.pants[pp].cuff_ends[sp].sign == 1
            assert pd.pants[pm].cuff_ends[sm].sign == -1

    def test_genus_too_small(self):
        with pytest.raises(InvalidDecomposition):
            standard_decomposition(1)

    def test_duplicate_cuff_id_rejected_on_construction(self):
        pd = standard_decomposition(2)
        with pytest.raises(InvalidDecomposition, match="duplicate cuff ids"):
            PantsDecomposition(genus=2, generators=pd.generators,
                               relators=pd.relators,
                               cuffs=(pd.cuffs[0], pd.cuffs[0], pd.cuffs[2]),
                               pants=pd.pants)

    def test_json_round_trip(self):
        pd = standard_decomposition(2)
        data = decomposition_to_dict(pd)
        again = decomposition_from_dict(data)
        again.validate()
        assert decomposition_to_dict(again) == data

    def test_schema_core_keys(self):
        data = decomposition_to_dict(standard_decomposition(2))
        assert data["genus"] == 2
        assert {"id", "word"} <= set(data["cuffs"][0])
        assert "cuff_ends" in data["pants"][0]
        assert len(data["pants"][0]["cuff_ends"]) == 3


def _end(cuff, sign):
    return {"cuff": cuff, "sign": sign, "conjugator": ""}


def _two_closed_halves(document):
    """Genus-3 pants, two and two, glued into two closed halves."""
    a, b, c, d, e, f = (c["id"] for c in document["cuffs"])
    document["pants"] = [
        {"cuff_ends": [_end(a, 1), _end(a, -1), _end(b, 1)]},
        {"cuff_ends": [_end(b, -1), _end(c, 1), _end(c, -1)]},
        {"cuff_ends": [_end(d, 1), _end(d, -1), _end(e, 1)]},
        {"cuff_ends": [_end(e, -1), _end(f, 1), _end(f, -1)]}]


class TestValidate:
    """Each check of PantsDecomposition.validate, met by a document
    that breaks it alone and is refused when it is read."""

    @pytest.mark.parametrize("genus, edit, message", [
        (2, lambda d: d.update(genus=1), "genus 1 < 2"),
        (2, lambda d: d.update(genus=3), "expected 6 cuffs, got 3"),
        (2, lambda d: d["pants"].pop(), "expected 2 pants, got 1"),
        # a1's second end moved to a2: one end for a1, three for a2
        (2, lambda d: d["pants"][0]["cuff_ends"][1].update(cuff="a2"),
         "cuff 'a1' has 1 ends, expected 2"),
        (2, lambda d: d["pants"][0]["cuff_ends"][1].update(sign=1),
         "cuff 'a1' needs one +1 and one -1 end, got [1, 1]"),
        # every slot of three-slot pants is taken by the known cuffs, so
        # only a fourth slot can name an unknown one
        (2, lambda d: d["pants"][0]["cuff_ends"].append(_end("zz", 1)),
         "pants 0 references unknown cuff 'zz'"),
        (3, _two_closed_halves,
         "gluing graph disconnected: reached 2 of 4 pants"),
    ], ids=["genus", "cuff-count", "pants-count", "end-count", "signs",
            "unknown-cuff", "disconnected"])
    def test_refused(self, genus, edit, message):
        document = decomposition_to_dict(standard_decomposition(genus))
        edit(document)
        with pytest.raises(InvalidDecomposition) as got:
            decomposition_from_dict(document)
        assert str(got.value) == message

    def test_signed_ends_of_unknown_cuff(self):
        pd = standard_decomposition(2)
        with pytest.raises(InvalidDecomposition) as got:
            pd.signed_ends_of("zz")
        assert str(got.value) == "cuff 'zz' does not have one end of each sign"


class TestOrientations:
    def test_count_genus2(self):
        pd = standard_decomposition(2)
        oris = enumerate_orientations(pd)
        assert len(oris) == 8
        assert oris[0].forward == (True, True, True)

    def test_count_genus3(self):
        assert len(enumerate_orientations(standard_decomposition(3))) == 64



class TestLamination:
    def test_counts(self):
        for g in range(2, 6):
            pd = standard_decomposition(g)
            cuffs = [c.id for c in pd.cuffs]
            around = [sorted({cuffs.index(e.cuff) for e in pants.cuff_ends})
                      for pants in pd.pants]
            lam = build_lamination(pd)
            assert [list(c) for c in lam.pants_cuffs] == around
            keys = [leaf.key for leaf in lam.leaves]
            assert keys == cuffs + [(p, i) for p in range(2 * g - 2)
                                    for i in range(3)]
            assert len(cuffs) == 3 * g - 3
            for j, leaf in enumerate(lam.leaves[:3 * g - 3]):
                both = {c for p, _ in pd.ends_of(cuffs[j]) for c in around[p]}
                assert list(leaf.support) == sorted(both)
            for leaf in lam.leaves[3 * g - 3:]:
                assert list(leaf.support) == around[leaf.key[0]]


class TestArcs:
    def _lam(self):
        pd = standard_decomposition(2)
        return pd, build_lamination(pd)

    def test_validate_known_arc(self):
        pd, lam = self._lam()
        arc = TransverseArc(crossings=(
            LeafCrossing(pants=0, leaf=0),
            CuffCrossing(cuff=pd.cuffs[0].id),
            LeafCrossing(pants=0, leaf=1),
        ))
        arc.validate(pd)

    def test_unknown_leaf_rejected(self):
        pd, lam = self._lam()
        arc = TransverseArc(crossings=(LeafCrossing(pants=9, leaf=0),))
        with pytest.raises(InvalidDecomposition):
            arc.validate(pd)

    def test_subdivision_splits_before_second_cuff(self):
        pd, lam = self._lam()
        c = pd.cuffs[0].id
        arc = TransverseArc(crossings=(
            LeafCrossing(pants=0, leaf=0),
            CuffCrossing(cuff=c),
            LeafCrossing(pants=0, leaf=1),
            CuffCrossing(cuff=c),
            LeafCrossing(pants=0, leaf=2),
        ))
        pieces = subdivide_arc(arc)
        assert len(pieces) == 2
        flat = [cr for piece in pieces for cr in piece.crossings]
        assert flat == list(arc.crossings)

    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    def test_subdivision_preserves_crossings(self, i, j, k):
        pd, lam = self._lam()
        cuffs = [c.id for c in pd.cuffs]
        arc = TransverseArc(crossings=(
            LeafCrossing(pants=0, leaf=i),
            CuffCrossing(cuff=cuffs[j]),
            LeafCrossing(pants=1, leaf=k),
            CuffCrossing(cuff=cuffs[i]),
            LeafCrossing(pants=0, leaf=j),
        ))
        pieces = subdivide_arc(arc)
        flat = [cr for piece in pieces for cr in piece.crossings]
        assert flat == list(arc.crossings)


def misaligned_document() -> dict:
    """A genus-2 decomposition whose one boundary component maps two
    surface generators by one word and has no peripheral words."""
    data = decomposition_to_dict(standard_decomposition(2))
    data.update({"manifold": {"generators": ["x"], "relators": []},
                 "boundary": [{"surface_generators": ["a1", "a2"],
                               "generator_words": ["x"],
                               "peripheral_words": []}]})
    return data


class TestInclusionDocument:
    def test_bundled_document(self):
        from importlib.resources import files
        doc = files("pleatbend.data").joinpath("genus2_handlebody.json")
        pd, inc = load_document(str(doc))
        pd.validate()
        assert inc is not None
        assert inc.generators == ("x", "y")
        comp = inc.components[0]
        assert comp.include_word("a1b1a2") == "xy"
        assert comp.include_word("A1") == "X"
        assert inc.peripheral_words == ("x", "y", "xy", "xY")

    def test_peripheral_words_errors(self):
        foreign = BoundaryComponent(surface_generators=("a1",),
                                    generator_words=("x",),
                                    peripheral_words=("a1b1",))
        inc = BoundaryInclusion(generators=("x",), relators=(),
                                components=(foreign,))
        for _ in range(2):      # a failed rewrite is not cached
            with pytest.raises(UnknownLetter) as got:
                inc.peripheral_words
            assert str(got.value) == \
                "letter 'b1' is not a surface generator of this component"

    def test_misaligned_component_refused_where_it_enters(self, tmp_path):
        # with peripheral words or without, through which no word is
        # ever rewritten, and in a document
        message = "generator_words not aligned with surface generators"
        for peripheral in (("a1",), ()):
            with pytest.raises(InvalidDecomposition) as got:
                BoundaryComponent(surface_generators=("a1", "a2"),
                                  generator_words=("x",),
                                  peripheral_words=peripheral)
            assert str(got.value) == message
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(misaligned_document()))
        with pytest.raises(InvalidDecomposition) as got:
            load_document(str(f))
        assert str(got.value) == message

    def test_save_load_round_trip(self, tmp_path):
        pd = standard_decomposition(2)
        comp = BoundaryComponent(
            surface_generators=("a1", "b1", "a2", "b2"),
            generator_words=("x", "", "y", ""),
            peripheral_words=("a1", "a2"))
        inc = BoundaryInclusion(generators=("x", "y"), relators=(),
                                components=(comp,))
        f = tmp_path / "doc.json"
        save_document(str(f), pd, inc)
        pd2, inc2 = load_document(str(f))
        assert decomposition_to_dict(pd2) == decomposition_to_dict(pd)
        assert inc2.components[0].peripheral_words == ("a1", "a2")

    def test_document_without_inclusion(self, tmp_path):
        pd = standard_decomposition(3)
        f = tmp_path / "pd.json"
        save_document(str(f), pd, None)
        pd2, inc2 = load_document(str(f))
        assert inc2 is None
        assert len(pd2.cuffs) == 6


@pytest.mark.parametrize("name", [
    "topology.CuffEnd", "topology.Pants", "topology.Cuff",
    "topology.PantsDecomposition", "topology.Leaf", "topology.Lamination",
    "topology.LeafCrossing", "topology.CuffCrossing",
    "topology.TransverseArc", "topology.BoundaryInclusion",
    "pleated.PairSharing", "pleated.AdaptednessReport",
    "representation.Representation"])
def test_record_class_has_a_docstring(name):
    # dataclass writes the signature where a class has no docstring
    module, cls = name.split(".")
    doc = getattr(importlib.import_module(f"pleatbend.{module}"), cls).__doc__
    assert not doc.startswith(f"{cls}("), doc
    assert ">>>" not in doc
