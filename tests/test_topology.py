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
