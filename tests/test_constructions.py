import pytest

from quadsemi.constructions import (
    TowerSpec,
    base_qhs,
    build_regular_qhs,
    extend,
    power_witness,
    tower_spec,
    wisliceny_count,
    witness_power,
)
from quadsemi.model import (
    Relation,
    delta,
    pair_key,
    presentation,
    validate_qhs,
)

# the 4-generator extension of the one-relation base, written out in full
TOWER5_RELATIONS = {
    Relation.equal((5, 2), (2, 1)),
    Relation.equal((5, 3), (3, 1)),
    Relation.equal((4, 3), (2, 2)),
    Relation.equal((5, 5), (4, 1)),
    Relation.equal((5, 4), (3, 2)),
    Relation.equal((4, 4), (3, 3)),
    Relation.equal((4, 2), (1, 1)),
    Relation.zero(5, 1),
}


class TestBases:
    def test_sizes(self):
        assert [len(base_qhs(m).relations) for m in (1, 2, 3, 4)] == [1, 2, 4, 6]

    def test_all_validate(self):
        for m in (1, 2, 3, 4):
            assert validate_qhs(base_qhs(m)).valid

    def test_m1_content(self, m1):
        assert m1.relations == (Relation.zero(1, 1),)

    def test_m3_content(self, m3):
        assert set(m3.relations) == {
            Relation.equal((3, 3), (2, 1)),
            Relation.equal((3, 2), (1, 1)),
            Relation.zero(2, 2),
            Relation.zero(3, 1),
        }

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            base_qhs(0)
        with pytest.raises(ValueError):
            base_qhs(5)


class TestExtension:
    def test_extend_base1_exact_content(self, m1, tower5):
        assert set(extend(m1).relations) == TOWER5_RELATIONS
        assert extend(m1) == tower5

    def test_relation_growth(self, m1, m2, m3, m4):
        for inner in (m1, m2, m3, m4):
            outer = extend(inner)
            n = inner.alphabet.n + 4
            assert outer.alphabet.n == n
            assert len(outer.relations) == len(inner.relations) + 2 * n - 3
            assert validate_qhs(outer).valid

    def test_extend_m2_size(self, m2):
        assert len(extend(m2).relations) == 11 == delta(6)

    def test_extend_m4_size(self, m4):
        assert len(extend(m4).relations) == 19 == delta(8)

    def test_iterated_extension_stays_valid(self, m1):
        p = m1
        for _ in range(2):
            p = extend(p)
        assert p.alphabet.n == 9
        assert len(p.relations) == delta(9)
        assert validate_qhs(p).valid

    def test_rejects_invalid_inner(self):
        with pytest.raises(ValueError, match="valid QHS"):
            extend(presentation(2, []))


class TestTower:
    def test_spec_arithmetic(self):
        assert tower_spec(4) == TowerSpec(4, 4, 0)
        assert tower_spec(5) == TowerSpec(5, 1, 1)
        assert tower_spec(8) == TowerSpec(8, 4, 1)
        assert tower_spec(9) == TowerSpec(9, 1, 2)
        assert tower_spec(13) == TowerSpec(13, 1, 3)

    def test_spec_consistency(self):
        for n in range(1, 30):
            spec = tower_spec(n)
            assert spec.n == spec.base_size + 4 * spec.extensions
            assert 1 <= spec.base_size <= 4

    def test_build_sizes_meet_the_minimum(self):
        # the one-pass tower is extend iterated: every base size, up to 14 levels
        for base in (1, 2, 3, 4):
            p = base_qhs(base)
            for n in range(base, 61, 4):
                tower = build_regular_qhs(n)
                assert tower == p
                assert tower.alphabet.n == n
                assert len(tower.relations) == delta(n)
                assert tower.is_qhs
                p = extend(p)

    def test_small_towers_are_the_bases(self, m1, m4):
        assert build_regular_qhs(1) == m1
        assert build_regular_qhs(4) == m4

    def test_binomials_rewrite_downward(self):
        for n in range(1, 14):
            for rel in (r for r in build_regular_qhs(n).relations if not r.is_zero):
                assert pair_key(rel.right) < pair_key(rel.left)


class TestWitness:
    def test_powers(self):
        assert witness_power(5) == 8
        assert witness_power(6) == 11
        assert witness_power(7) == 13
        for n in range(5, 10_001):
            assert witness_power(n) == ((5 * n - 9) // 2 if n % 2 else (5 * n - 8) // 2)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            witness_power(4)

    def test_tower5_witness_found(self, tower5):
        w = power_witness(tower5)
        assert w is not None
        assert len(w) == 8
        assert w[-1] == 5

    def test_witnesses_are_frozen(self, tower5):
        # lemma-m1 answers are cached under ENGINE_VERSION: a walk-order
        # change that moves a witness must bump the version
        assert power_witness(tower5) == (5, 1, 1, 3, 2, 5, 5, 5)
        assert power_witness(build_regular_qhs(6)) == (2, 4, 6, 4, 3, 5, 3, 2, 6, 6, 6)
        assert power_witness(build_regular_qhs(7)) == (5, 6, 6, 4, 7, 3, 5, 2, 5, 1, 7, 7, 7)

    def test_unreachable_power_returns_none(self, tower5):
        assert power_witness(tower5, 1) is None

    def test_power_must_be_positive(self, tower5):
        with pytest.raises(ValueError):
            power_witness(tower5, 0)


class TestWisliceny:
    def test_spot_values(self):
        assert wisliceny_count(3) == 4
        assert wisliceny_count(4) == 6
        assert wisliceny_count(5) == 9
        assert wisliceny_count(6) == 12

    def test_is_ceiling_of_quarter(self):
        # the reference: the ceiling taken by parity
        for n in range(1, 10_001):
            by_parity = (n * n + 2 * n) // 4 if n % 2 == 0 else (n * n + 2 * n + 1) // 4
            assert wisliceny_count(n) == by_parity

    def test_exceeds_delta_from_five_on(self):
        assert wisliceny_count(4) == delta(4)
        for n in range(5, 20):
            assert wisliceny_count(n) > delta(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            wisliceny_count(0)
