import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from quadsemi.census import enumerate_presentations, relation_universe
from quadsemi.constructions import build_regular_qhs
from quadsemi.model import (
    Alphabet,
    IdealMode,
    Presentation,
    Relation,
    Violation,
    ViolationKind,
    canonical_json,
    delta,
    from_json_dict,
    is_pure,
    lower_pairs,
    monomial_str,
    pair_key,
    pair_str,
    presentation,
    presentation_hash,
    qhs_cardinality_bounds,
    rtl_key,
    rtl_lex_cmp,
    strip_top,
    to_json_dict,
    validate_qhs,
)
from quadsemi.textio import parse_presentation

from small_qhs import qhs_census


class TestOrder:
    def test_last_position_dominates(self):
        assert rtl_lex_cmp((2, 1), (1, 2)) == -1
        assert rtl_lex_cmp((1, 2), (2, 1)) == 1
        assert rtl_lex_cmp((1, 2), (1, 2)) == 0

    def test_degree_two_chain(self):
        words = [(2, 2), (1, 2), (1, 1), (2, 1)]
        words.sort(key=rtl_key)
        assert words == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_earlier_positions_break_ties(self):
        assert rtl_lex_cmp((1, 3, 2), (2, 2, 2)) == 1
        assert rtl_lex_cmp((1, 2, 2), (2, 2, 2)) == -1

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rtl_lex_cmp((1,), (1, 2))

    def test_pair_key_agrees_with_word_key(self):
        pairs = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        assert sorted(pairs, key=pair_key) == sorted(pairs, key=rtl_key)


class TestRelation:
    def test_equal_orients_larger_side_left(self):
        rel = Relation.equal((1, 1), (2, 2))
        assert rel.left == (2, 2)
        assert rel.right == (1, 1)
        assert rel == Relation.equal((2, 2), (1, 1))

    def test_zero_shape(self):
        rel = Relation.zero(2, 1)
        assert rel.is_zero
        assert rel.support == frozenset({(2, 1)})
        assert str(rel) == "x2*x1 = 0"

    def test_str_binomial(self):
        assert str(Relation.equal((2, 2), (1, 1))) == "x2*x2 = x1*x1"

    def test_identical_sides_rejected(self):
        with pytest.raises(ValueError):
            Relation.equal((1, 2), (1, 2))

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            Relation.zero(0, 1)
        with pytest.raises(ValueError):
            Relation((1, 2, 3))  # type: ignore[arg-type]

    def test_support_and_max_letter(self):
        rel = Relation.equal((5, 2), (2, 1))
        assert rel.support == frozenset({(5, 2), (2, 1)})
        assert rel.max_letter() == 5


class TestKeyedRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stored_key_and_top_letter_match_the_methods(self, n):
        for rel in relation_universe(n):
            built = [rel] if rel.is_zero else [
                Relation.equal(rel.left, rel.right),
                Relation.equal(rel.right, rel.left),
            ]
            for r in built:
                assert r == rel
                assert r._key == r.sort_key() == rel.sort_key()
                assert r._top == r.max_letter() == rel.max_letter()

    def test_stored_values_are_not_fields(self):
        rel = Relation.equal((1, 1), (2, 2))
        assert repr(rel) == "Relation(left=(2, 2), right=(1, 1))"
        assert hash(rel) == hash(((2, 2), (1, 1)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_relation_order_builds_the_sorted_presentation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        p = data.draw(st.sampled_from(qhs_census(n)))
        shuffled = presentation(n, data.draw(st.permutations(p.relations)))
        assert shuffled == p
        assert shuffled.relations == p.relations
        assert presentation_hash(shuffled) == presentation_hash(p)


class TestPresentation:
    def test_relations_sorted_and_frozen(self, m3):
        keys = [r.sort_key() for r in m3.relations]
        assert keys == sorted(keys)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            presentation(2, [Relation.zero(2, 1), Relation.zero(2, 1)])

    def test_canonicalised_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            presentation(
                2,
                [Relation.equal((2, 2), (1, 1)), Relation.equal((1, 1), (2, 2))],
            )

    def test_letters_beyond_alphabet_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            presentation(2, [Relation.zero(3, 1)])

    def test_alphabet_positive(self):
        with pytest.raises(ValueError):
            Alphabet(0)

    def test_equal_content_compares_equal(self, m2):
        again = presentation(2, [Relation.zero(2, 1), Relation.equal((1, 1), (2, 2))])
        assert again == m2
        assert hash(again) == hash(m2)

    def test_support_union(self, m2):
        assert m2.support_union == frozenset({(2, 2), (1, 1), (2, 1)})

    def test_zero_and_binomial_split(self, m4):
        zeros = [r for r in m4.relations if r.is_zero]
        binomials = [r for r in m4.relations if not r.is_zero]
        assert len(zeros) == 2
        assert len(binomials) == 4
        assert set(zeros) | set(binomials) == set(m4.relations)


class TestValidate:
    def test_bases_are_valid(self, m1, m2, m3, m4):
        for p in (m1, m2, m3, m4):
            report = validate_qhs(p)
            assert report.valid, report.violations
            assert p.is_qhs

    def test_missing_top_flagged(self, m4):
        rels = [r for r in m4.relations if r != Relation.zero(4, 1)]
        report = validate_qhs(presentation(4, rels))
        kinds = {v.kind for v in report.violations}
        assert not report.valid
        assert ViolationKind.MISSING_TOP_MONOMIAL in kinds
        assert ViolationKind.COVERAGE_GAP in kinds

    def test_overlapping_supports_flagged(self):
        p = presentation(
            2,
            [Relation.zero(1, 1), Relation.equal((2, 2), (1, 1)), Relation.zero(2, 1)],
        )
        report = validate_qhs(p)
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.DISJOINTNESS_VIOLATED in kinds
        flagged = [v for v in report.violations if v.kind is ViolationKind.DISJOINTNESS_VIOLATED]
        assert flagged[0].pair == (1, 1)

    def test_ascending_zero_flagged(self):
        p = presentation(2, [Relation.zero(1, 2), Relation.zero(1, 1),
                             Relation.zero(2, 2), Relation.zero(2, 1)])
        report = validate_qhs(p)
        assert ViolationKind.BAD_RELATION_SHAPE in {v.kind for v in report.violations}

    def test_bad_binomial_shape_flagged(self):
        # x3x2 = x2x2 fails both shapes: needs b > c or d < b, has b = c = d = 2
        p = presentation(
            3,
            [
                Relation.equal((3, 2), (2, 2)),
                Relation.zero(1, 1),
                Relation.zero(2, 1),
                Relation.zero(3, 3),
                Relation.zero(3, 1),
            ],
        )
        report = validate_qhs(p)
        assert ViolationKind.BAD_RELATION_SHAPE in {v.kind for v in report.violations}

    def test_is_qhs_agrees_with_the_report(self):
        # (2, 4) reaches the QHS on two generators and their near misses
        cases = [*(p for n in (1, 2, 3, 4) for p in qhs_census(n)),
                 *enumerate_presentations(3, 2), *enumerate_presentations(2, 4)]
        verdicts = {p.is_qhs for p in cases}
        assert verdicts == {True, False}
        for p in cases:
            assert p.is_qhs == validate_qhs(p).valid, p

    def test_reports_are_frozen(self):
        # the ordered (kind, detail, pair) triples of 1,768 reports, one
        # JSON line each: any change to a report's wording or order moves
        # the digest
        cases = [*enumerate_presentations(2, 4), *enumerate_presentations(3, 2),
                 *(p for n in (1, 2, 3, 4) for p in qhs_census(n)),
                 parse_presentation("generators 1000\n")]
        digest = hashlib.sha256()
        for p in cases:
            triples = [[v.kind.value, v.detail, v.pair] for v in validate_qhs(p).violations]
            digest.update(json.dumps(triples).encode("ascii") + b"\n")
        assert len(cases) == 1768
        assert digest.hexdigest() == "9c537ff9af54fde1edbdc5b900d1ec3a68981fb4a4943611b6b42fc4b427ff28"

    def test_empty_presentation_reports_every_gap(self):
        report = validate_qhs(presentation(2, []))
        gaps = [v for v in report.violations if v.kind is ViolationKind.COVERAGE_GAP]
        assert {v.pair for v in gaps} == lower_pairs(2)

    def test_gaps_past_the_tenth_are_counted(self):
        report = validate_qhs(presentation(5, [Relation.zero(5, 1), Relation.zero(1, 1)]))
        gaps = [v for v in report.violations if v.kind is ViolationKind.COVERAGE_GAP]
        assert [v.pair for v in gaps[:10]] == sorted(lower_pairs(5) - {(5, 1), (1, 1)},
                                                     key=pair_key)[:10]
        assert report.violations[10:] == (
            Violation(ViolationKind.COVERAGE_GAP, "no support covers 3 more lower pairs"),)

    def test_lower_pairs_count(self):
        for n in range(1, 8):
            assert len(lower_pairs(n)) == n * (n + 1) // 2


class TestStripTop:
    def test_strip_m2(self, m2):
        reduced = strip_top(m2)
        assert reduced.relations == (Relation.equal((2, 2), (1, 1)),)

    def test_strip_m1_empty(self, m1):
        assert strip_top(m1).relations == ()

    def test_strip_requires_top(self):
        with pytest.raises(ValueError):
            strip_top(presentation(2, [Relation.zero(1, 1)]))


def _delta_by_residue(n):
    """delta(n) as a piecewise quadratic in j = (n - 1) // 4, the reference."""
    j, r = divmod(n - 1, 4)
    if r == 0:
        return 4 * j * j + 3 * j + 1
    if r == 1:
        return 4 * j * j + 5 * j + 2
    if r == 2:
        return 4 * j * j + 7 * j + 4
    return 4 * j * j + 9 * j + 6


class TestDelta:
    def test_spot_values(self):
        assert delta(1) == 1
        assert delta(2) == 2
        assert delta(3) == 4
        assert delta(4) == 6
        assert delta(5) == 8
        assert delta(6) == 11
        assert delta(7) == 15
        assert delta(8) == 19
        assert delta(9) == 23

    def test_matches_closed_form(self):
        for n in range(1, 10_001):
            assert delta(n) == _delta_by_residue(n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            delta(0)
        with pytest.raises(ValueError):
            delta(-3)

    def test_cardinality_bounds(self):
        assert qhs_cardinality_bounds(1) == (1, 1)
        assert qhs_cardinality_bounds(3) == (4, 6)
        assert qhs_cardinality_bounds(4) == (6, 10)


class TestPurity:
    def test_m4_all_pure(self, m4):
        assert all(is_pure(c, m4) for c in m4.alphabet.letters())

    def test_chained_relation_breaks_purity(self):
        p = presentation(
            3,
            [
                Relation.equal((3, 2), (2, 1)),
                Relation.zero(1, 1),
                Relation.zero(2, 2),
                Relation.zero(3, 3),
                Relation.zero(3, 1),
            ],
        )
        assert not is_pure(1, p)
        assert is_pure(2, p)
        assert is_pure(3, p)

    def test_tower_top_letter_pure(self, tower5):
        assert is_pure(5, tower5)
        assert not is_pure(1, tower5)

    def test_rejects_non_qhs(self):
        with pytest.raises(ValueError):
            is_pure(1, presentation(2, []))

    def test_rejects_letter_out_of_range(self, m2):
        with pytest.raises(ValueError):
            is_pure(3, m2)


class TestSerialisation:
    def test_json_round_trip(self, m4, tower5):
        for p in (m4, tower5):
            assert from_json_dict(to_json_dict(p)) == p

    def test_canonical_json_is_sorted_and_compact(self, m2):
        text = canonical_json(m2)
        assert json.loads(text) == to_json_dict(m2)
        assert " " not in text

    def test_hash_is_computed_once(self, monkeypatch):
        p = build_regular_qhs(6)
        want = hash((p.alphabet, p.relations))
        assert hash(p) == want

        def rehash(_rel):
            raise AssertionError("a relation was hashed again")

        monkeypatch.setattr(Relation, "__hash__", rehash)
        assert hash(p) == want

    def test_hash_is_stable_and_content_keyed(self, m2):
        again = presentation(2, [Relation.equal((1, 1), (2, 2)), Relation.zero(2, 1)])
        assert presentation_hash(m2) == presentation_hash(again)
        assert len(presentation_hash(m2)) == 16

    def test_hash_is_kept_on_the_presentation(self):
        ps = [p for n in range(1, 5) for p in qhs_census(n)]
        ps += [build_regular_qhs(n) for n in range(5, 9)]
        for p in ps:
            # a fresh copy, so that no earlier test has hashed it
            q = presentation(p.n, p.relations)
            before = (repr(q), hash(q))
            want = hashlib.sha256(canonical_json(q).encode("ascii")).hexdigest()[:16]
            assert "_content_id" not in vars(q)
            assert presentation_hash(q) == want
            assert "_content_id" in vars(q)
            assert presentation_hash(q) == want
            # the kept id takes no part in ==, hash or repr
            assert (repr(q), hash(q)) == before
            assert q == presentation(p.n, p.relations)
            assert want not in repr(q)

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            from_json_dict([])  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            from_json_dict({"relations": []})
        with pytest.raises(ValueError):
            from_json_dict({"n": 2, "relations": [{"weird": [1, 1]}]})
        with pytest.raises(ValueError):
            from_json_dict({"n": 2, "relations": [{"zero": [1]}]})

    def test_rendering_helpers(self):
        assert pair_str((5, 2)) == "x5*x2"
        assert monomial_str((1, 2, 3)) == "x1*x2*x3"

    def test_ideal_mode_values(self):
        assert IdealMode.FULL.value == "full"
        assert IdealMode.WITHOUT_TOP.value == "without_top"

    def test_presentation_str_mentions_relations(self, m2):
        text = str(Presentation(Alphabet(2), m2.relations))
        assert "x2*x1 = 0" in text
