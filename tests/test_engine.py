import os
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import quadsemi.engine as engine
from quadsemi.analysis import hilbert_profile
from quadsemi.census import enumerate_presentations, relation_universe
from quadsemi.constructions import build_regular_qhs, witness_power
from quadsemi.engine import (
    DEFAULT_LIMITS,
    Classification,
    EngineLimits,
    MinimalBasis,
    ResourceExhausted,
    classify,
    coset_class,
    initial_basis,
    iter_class,
    iter_singular_sets,
    minimal_monomial,
    next_minimal_basis,
    regularity_degree,
    singular_monomials,
)
from quadsemi.model import IdealMode, Relation, presentation
from quadsemi.textio import parse_presentation

from bruteforce import Partition
from small_qhs import qhs_census
from test_acceptance import CENSUS_OPEN

FULL = IdealMode.FULL
REDUCED = IdealMode.WITHOUT_TOP


def swap_only(n, *pairs):
    """Presentation from equality relations alone; engine input, not a QHS."""
    return presentation(n, [Relation.equal(a, b) for a, b in pairs])


def _packed(rules, *letters):
    """A word as the engine's walks hold it under ``rules``."""
    return engine._pack(letters, rules.k)


class TestCosetClass:
    def test_reduced_class_of_square(self, m2):
        cls = coset_class((1, 1), m2, REDUCED)
        assert cls.members == frozenset({(1, 1), (2, 2)})
        assert cls.minimal == (1, 1)
        assert not cls.is_zero
        assert cls.degree == 2

    def test_full_mode_kills_top(self, m2):
        assert coset_class((2, 1), m2, FULL).is_zero

    def test_zero_through_a_swap(self, m2):
        # x1^3 rewrites to x2x2x1 which contains the top monomial
        cls = coset_class((1, 1, 1), m2, FULL)
        assert cls.is_zero
        assert cls.minimal is None
        assert cls.members is None

    def test_untouched_word_is_a_singleton(self, m2):
        cls = coset_class((1, 2), m2, FULL)
        assert cls.members == frozenset({(1, 2)})
        assert cls.minimal == (1, 2)

    def test_degree_three_class_content(self, m3):
        cls = coset_class((1, 1, 1), m3, REDUCED)
        assert cls.members == frozenset(
            {(1, 1, 1), (3, 2, 1), (1, 3, 2), (3, 3, 3), (2, 1, 3)}
        )
        assert cls.minimal == (1, 1, 1)

    def test_tower_square_class(self, tower5):
        cls = coset_class((1, 1), tower5, REDUCED)
        assert cls.members == frozenset({(1, 1), (4, 2)})
        assert cls.minimal == (1, 1)

    def test_minimal_monomial_shortcut(self, m3):
        assert minimal_monomial((3, 3, 3), m3, REDUCED) == (1, 1, 1)
        assert minimal_monomial((2, 2), m3, REDUCED) is None

    def test_minimal_is_idempotent(self, m3, tower5):
        for p in (m3, tower5):
            for word in [(1, 1), (2, 1, 2), (1, 2, 3), (3, 1, 1, 2)]:
                v = minimal_monomial(word, p, REDUCED)
                if v is not None:
                    assert minimal_monomial(v, p, REDUCED) == v


def _reference_walk(word, p):
    """Depth-first swap closure: pop a word, scan its positions left to right,
    take each pair's replacements in relation order, yield each new word."""
    reps: dict = {}
    for rel in p.relations:
        if not rel.is_zero:
            reps.setdefault(rel.left, []).append(rel.right)
            reps.setdefault(rel.right, []).append(rel.left)
    yield word
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            for r in reps.get(w[i:i + 2], ()):
                v = w[:i] + r + w[i + 2:]
                if v not in seen:
                    seen.add(v)
                    yield v
                    stack.append(v)


class TestIterClass:
    def test_streams_whole_class(self, m3):
        got = list(iter_class((1, 1, 1), m3, REDUCED))
        assert got[0] == (1, 1, 1)
        assert set(got) == set(coset_class((1, 1, 1), m3, REDUCED).members)
        assert len(got) == len(set(got))

    def test_early_break_is_cheap(self, tower5):
        # finding any member ending in the top letter must not need the
        # whole class
        count = 0
        for member in iter_class((1,) * 8, tower5, REDUCED):
            count += 1
            if member[-1] == 5:
                break
        else:
            pytest.fail("no witness found")
        assert count < 5000

    @pytest.fixture
    def two_replacements(self):
        # x1x2 and x2x1 each have two replacements, which no QHS pair has
        return swap_only(3, ((1, 2), (2, 1)), ((1, 2), (3, 3)), ((2, 1), (1, 3)))

    @pytest.mark.parametrize("name, word, count", [
        ("tower5", (1,) * 8, 3000), ("m4", (1,) * 8, 790), ("m3", (1,), 1),
        ("two_replacements", (1, 2) * 3, 695)])
    def test_discovery_order_is_the_reference_dfs(self, request, name, word, count):
        # power_witness and every cached lemma-m1 answer depend on the first
        # member a scan meets, so the order is pinned, not just the set
        p = request.getfixturevalue(name)
        # the reduced ideal is defined for a QHS only
        got = list(islice(iter_class(word, p, REDUCED if p.is_qhs else FULL), 3000))
        assert len(got) == count
        assert got == list(islice(_reference_walk(word, p), 3000))

    def test_cap_applies(self):
        p = swap_only(2, ((2, 1), (1, 2)))
        with pytest.raises(ResourceExhausted):
            list(iter_class((1, 2) * 6, p, FULL, EngineLimits(max_class_size=50)))


def _outcome(scan):
    """What a scan returns, or ("exhausted", message) when it hits the cap."""
    try:
        return scan()
    except ResourceExhausted as exc:
        return ("exhausted", str(exc))


def _scans_agree(word, x, p, mode, limits):
    """The witness scan against the first ``iter_class`` member ending in x."""
    got = _outcome(lambda: engine._first_member_ending_in(word, x, p, mode, limits))
    want = _outcome(lambda: next(
        (v for v in iter_class(word, p, mode, limits) if v[-1] == x), None))
    assert got == want, (word, x, p, mode, limits)
    return got


@st.composite
def _scan_cases(draw):
    """(word, letter, presentation, mode, limits) on up to 4 generators."""
    n = draw(st.integers(min_value=1, max_value=4))
    mode = draw(st.sampled_from([FULL, REDUCED]))
    if mode is FULL and draw(st.booleans()):
        # up to 8 relations, so that a pair often has several replacements
        universe = relation_universe(n)
        p = presentation(n, draw(st.lists(st.sampled_from(universe), max_size=8,
                                          unique=True)))
    else:
        p = draw(st.sampled_from(qhs_census(n)))
    word = tuple(draw(st.lists(st.integers(min_value=1, max_value=n),
                               min_size=1, max_size=8)))
    x = draw(st.integers(min_value=1, max_value=n))
    cap = draw(st.sampled_from([1, 2, 3, 5, 10, 30, 100,
                                DEFAULT_LIMITS.max_class_size]))
    return word, x, p, mode, EngineLimits(max_class_size=cap)


class TestWitnessScan:
    """``_first_member_ending_in`` is its own loop; ``iter_class`` pins it."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("cap", [1, 10, 100, 1000, 10**4, 10**5, None])
    def test_towers_at_every_cap(self, n, cap):
        limits = DEFAULT_LIMITS if cap is None else EngineLimits(max_class_size=cap)
        _scans_agree((1,) * witness_power(n), n, build_regular_qhs(n), REDUCED, limits)

    def test_edge_cases(self, m2, tower5):
        limits = DEFAULT_LIMITS
        # the root already ends in x
        assert _scans_agree((1, 2), 2, m2, FULL, limits) == (1, 2)
        # a one-letter word that does not end in x
        assert _scans_agree((1,), 2, m2, FULL, limits) is None
        # a class of 13 members, none ending in x5
        assert len(coset_class((1,) * 4, tower5, REDUCED).members) == 13
        assert _scans_agree((1,) * 4, 5, tower5, REDUCED, limits) is None
        # x1 x1 swaps to x1 x3 and to x2 x3: the first in relation order wins
        p = swap_only(3, ((1, 1), (1, 3)), ((1, 1), (2, 3)))
        assert _scans_agree((1, 1), 3, p, FULL, limits) == (1, 3)
        # the cap is hit before the witness
        tower6 = build_regular_qhs(6)
        assert _scans_agree((1,) * 11, 6, tower6, REDUCED, EngineLimits(max_class_size=100)) == (
            "exhausted", "coset class of " + "*".join(["x1"] * 11) + " exceeded 100 members")

    @settings(max_examples=300, deadline=None)
    @given(_scan_cases())
    def test_small_presentations(self, case):
        _scans_agree(*case)


class TestErrors:
    def test_empty_word_rejected(self, m2):
        with pytest.raises(ValueError, match="empty word"):
            coset_class((), m2)

    def test_letter_outside_alphabet_rejected(self, m2):
        with pytest.raises(ValueError, match="outside alphabet"):
            coset_class((1, 3), m2)
        with pytest.raises(ValueError, match="outside alphabet"):
            coset_class((0,), m2)

    def test_reduced_mode_needs_the_top_relation(self):
        p = presentation(2, [Relation.zero(1, 1)])
        with pytest.raises(ValueError, match="x2\\*x1"):
            coset_class((1, 1), p, REDUCED)

    def test_alphabet_size_cap(self):
        p = presentation(300, [Relation.zero(300, 1)])
        with pytest.raises(ValueError, match="255"):
            coset_class((1,), p)

    def test_class_size_cap(self):
        p = swap_only(2, ((2, 1), (1, 2)))
        word = (1, 2) * 6  # class = all arrangements of six 1s and six 2s
        with pytest.raises(ResourceExhausted) as err:
            coset_class(word, p, FULL, EngineLimits(max_class_size=100))
        assert err.value.word == word
        assert err.value.degree == 12

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineLimits(max_class_size=0)
        with pytest.raises(ValueError):
            EngineLimits(max_degree=0)


class TestClassify:
    def test_zero(self, m3):
        assert classify((2, 2), m3) is Classification.ZERO

    def test_non_minimal(self, m3):
        assert classify((3, 3, 3), m3) is Classification.NON_MINIMAL

    def test_singular(self, m3):
        assert classify((1, 1), m3) is Classification.SINGULAR

    def test_tame_via_suffix_witness(self, m3):
        # (3,3,3) is in the class and carries the top letter at the last spot
        assert classify((1, 1, 1), m3) is Classification.TAME

    def test_degree_one(self, m3):
        assert classify((3,), m3) is Classification.TAME
        assert classify((1,), m3) is Classification.SINGULAR
        assert classify((2,), m3) is Classification.SINGULAR

    def test_full_mode_rejected(self, m3):
        with pytest.raises(ValueError, match="WITHOUT_TOP"):
            classify((1, 1), m3, FULL)


class TestBases:
    def test_initial_basis_full(self, m3):
        basis = initial_basis(m3, FULL)
        assert basis.degree == 1
        assert basis.minimals == ((1,), (2,), (3,))

    def test_degree_two_basis(self, m2):
        basis = next_minimal_basis(initial_basis(m2, FULL), m2, FULL)
        assert basis.degree == 2
        assert basis.minimals == ((1, 1), (1, 2))

    def test_degree_three_empties(self, m2):
        basis = initial_basis(m2, FULL)
        basis = next_minimal_basis(basis, m2, FULL)
        basis = next_minimal_basis(basis, m2, FULL)
        assert basis.degree == 3
        assert basis.minimals == ()

    def test_minimals_are_rtl_sorted_and_really_minimal(self, tower5):
        basis = initial_basis(tower5, REDUCED)
        for _ in range(3):
            basis = next_minimal_basis(basis, tower5, REDUCED)
        keys = [tuple(reversed(w)) for w in basis.minimals]
        assert keys == sorted(keys)
        for w in basis.minimals:
            assert minimal_monomial(w, tower5, REDUCED) == w

    def test_class_sizes_match_walks(self):
        for n in (1, 2, 3):
            for p in qhs_census(n):
                for mode in (FULL, REDUCED):
                    basis = initial_basis(p, mode)
                    for _ in range(5):
                        basis = next_minimal_basis(basis, p, mode)
                        sizes = basis._sizes
                        assert len(sizes) == len(basis.minimals)
                        for w, size in zip(basis.minimals, sizes):
                            assert size == len(coset_class(w, p, mode).members), (p, mode, w)

    def test_basis_without_classes_is_rebuilt(self, tower5):
        basis = initial_basis(tower5, REDUCED)
        for _ in range(3):
            basis = next_minimal_basis(basis, tower5, REDUCED)
        bare = MinimalBasis(basis.degree, basis.minimals)
        assert bare == basis
        assert next_minimal_basis(bare, tower5, REDUCED) == next_minimal_basis(
            basis, tower5, REDUCED)

    def test_basis_of_another_presentation_is_rebuilt(self):
        census = qhs_census(3)
        third = {}
        for p in census:
            basis = initial_basis(p, FULL)
            for _ in range(2):
                basis = next_minimal_basis(basis, p, FULL)
            third[p] = basis
        fourth = {p: next_minimal_basis(third[p], p, FULL) for p in census}
        assert len({b.minimals for b in fourth.values()}) > 1
        for p in census:
            for q in census:
                assert next_minimal_basis(third[p], q, FULL) == fourth[q], (p, q)

    def test_basis_of_another_mode_is_rebuilt(self, m2):
        full = next_minimal_basis(initial_basis(m2, FULL), m2, FULL)
        reduced = next_minimal_basis(initial_basis(m2, REDUCED), m2, REDUCED)
        assert full.minimals != reduced.minimals
        rebuilt = next_minimal_basis(full, m2, REDUCED)
        assert rebuilt.minimals == next_minimal_basis(reduced, m2, REDUCED).minimals


class TestSingularIteration:
    def test_m3_chain(self, m3):
        chain = list(iter_singular_sets(m3))
        assert chain == [
            (1, ((1,), (2,))),
            (2, ((1, 1), (1, 2))),
            (3, ()),
        ]

    def test_m2_chain(self, m2):
        assert list(iter_singular_sets(m2)) == [(1, ((1,),)), (2, ())]

    def test_m1_has_no_singular_letters(self, m1):
        assert list(iter_singular_sets(m1)) == [(1, ())]

    def test_requires_valid_qhs(self):
        with pytest.raises(ValueError, match="valid QHS"):
            next(iter_singular_sets(presentation(2, [])))

    def test_singular_monomials_one_degree(self, m3):
        assert singular_monomials(m3, 2) == ((1, 1), (1, 2))
        assert singular_monomials(m3, 3) == ()
        assert singular_monomials(m3, 7) == ()

    def test_singular_monomials_rejects_degree_zero(self, m3):
        with pytest.raises(ValueError):
            singular_monomials(m3, 0)

    def test_degree_cap_stops_iteration(self, tower5):
        chain = list(iter_singular_sets(tower5, EngineLimits(max_degree=3)))
        assert [deg for deg, _ in chain] == [1, 2, 3]
        assert all(words for _, words in chain)


class TestRegularity:
    def test_base_presentations(self, m1, m2, m3, m4):
        for m, p in enumerate((m1, m2, m3, m4), start=1):
            result = regularity_degree(p)
            assert result.status == "regular"
            assert result.degree == m
            assert result.nilpotency_bound == m + 1
            assert result.is_regular

    def test_degree_cap_yields_irregular_up_to(self, tower5):
        result = regularity_degree(tower5, EngineLimits(max_degree=3))
        assert result.status == "irregular_up_to"
        assert result.degree == 3
        assert result.nilpotency_bound is None
        assert not result.is_regular

    def test_class_cap_yields_inconclusive(self, tower5):
        result = regularity_degree(tower5, EngineLimits(max_class_size=1, max_degree=40))
        assert result.status == "inconclusive"
        assert result.degree == 1
        assert "exceeded 1" in result.detail


def _chain(p, limits=EngineLimits(max_degree=8)):
    return list(iter_singular_sets(p, limits))


def _small_qhs_and_tower5(tower5):
    return [tower5, *(p for n in (1, 2, 3) for p in qhs_census(n))]


class TestSingularBlocks:
    """The singular-set step walks blocks of the singular classes one degree down."""

    @pytest.mark.parametrize("budget", [0, 40])
    def test_classes_past_the_memo_budget_are_walked_word_by_word(
            self, monkeypatch, tower5, budget):
        # the budget is _KEPT_WORD_BUDGET (once the memo budget): 0 keeps and
        # hands down no class; 40 keeps some classes of tower n=5 and not others
        cases = _small_qhs_and_tower5(tower5)
        unbounded = [_chain(p) for p in cases]
        monkeypatch.setattr(engine, "_KEPT_WORD_BUDGET", budget)
        assert [_chain(p) for p in cases] == unbounded

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 8, 13])
    def test_capped_regularity_is_inconclusive_or_exact(self, monkeypatch, tower5, cap):
        cases = _small_qhs_and_tower5(tower5)
        exact = [regularity_degree(p, EngineLimits(max_degree=12)) for p in cases]
        limits = EngineLimits(max_class_size=cap, max_degree=12)
        # budget 0 keeps no class, so every walk goes word by word
        for budget in (engine._KEPT_WORD_BUDGET, 0):
            monkeypatch.setattr(engine, "_KEPT_WORD_BUDGET", budget)
            for p, want in zip(cases, exact):
                capped = regularity_degree(p, limits)
                if capped.status == "inconclusive":
                    assert capped.degree < want.degree, (p, cap, budget)
                else:
                    assert capped == want, (p, cap, budget)

    def test_tower6_capped_regularity_is_frozen(self):
        p = build_regular_qhs(6)
        capped = regularity_degree(p, EngineLimits(max_class_size=1000, max_degree=40))
        assert capped.status == "inconclusive"
        assert capped.degree >= 7
        capped = regularity_degree(p, EngineLimits(max_class_size=3000, max_degree=40))
        assert (capped.status, capped.degree) == ("regular", 14)

    def test_capped_answer_does_not_depend_on_the_hash_seed(self):
        # this census presentation met the cap at degree 4 under one hash
        # seed and not under others while kept classes were handed on in
        # set order
        script = (
            "from quadsemi.census import enumerate_qhs\n"
            "from quadsemi.engine import EngineLimits, regularity_degree\n"
            "from quadsemi.model import presentation_hash\n"
            "p = next(p for p in enumerate_qhs(5)\n"
            "         if presentation_hash(p) == '17fea0c40c48dc18')\n"
            "print(repr(regularity_degree(p, EngineLimits(max_class_size=10, max_degree=12))))\n"
        )
        src = os.path.dirname(os.path.dirname(engine.__file__))
        answers = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            answers.add(run.stdout.strip())
        assert len(answers) == 1, answers
        assert answers.pop().startswith("RegularityResult(")

    def test_exhaustion_reports_its_degree(self, tower5):
        with pytest.raises(ResourceExhausted) as err:
            _chain(tower5, EngineLimits(max_class_size=1, max_degree=40))
        assert err.value.degree == len(err.value.word) == 2
        result = regularity_degree(tower5, EngineLimits(max_class_size=1, max_degree=40))
        assert result.detail == str(err.value)

    def test_a_foreign_block_with_the_last_letter_is_checked_member_by_member(self):
        # 1 1 2 swaps at its last position to 1 3 2, whose prefix lies in
        # another class one degree down.  That member carries the top letter
        # where it differs from the prefix 1 1, so 1 1 2 is tame, although
        # the block (class of 1 3, letter 2) is settled without a word walk.
        rules = engine._rules(swap_only(3, ((1, 2), (3, 2))), FULL)
        home = (~0 << 8, _packed(rules, 1, 1), {1: [_packed(rules, 1, 1)]}, 1)
        foreign = (~1 << 8, _packed(rules, 1, 3), {3: [_packed(rules, 1, 3)]}, 1)
        below = {_packed(rules, 1, 1): home, _packed(rules, 1, 3): foreign}
        word = _packed(rules, 1, 1, 2)
        assert engine._settle(word, rules, 10, below) is None

    def test_a_block_with_an_earlier_letter_precedes_the_word(self):
        # 1 1 3 swaps at its last position to 1 2 2, whose prefix lies in
        # another class one degree down.  That block ends in a letter before
        # 3, so its words precede 1 1 3, which is not minimal.  Nothing else
        # in the walk shows it: the block's only exit leads back to the root.
        p = swap_only(4, ((1, 3), (2, 2)))
        rules = engine._rules(p, FULL)
        home = (~0 << 8, _packed(rules, 1, 1), {1: [_packed(rules, 1, 1)]}, 1)
        foreign = (~1 << 8, _packed(rules, 1, 2), {2: [_packed(rules, 1, 2)]}, 1)
        below = {_packed(rules, 1, 1): home, _packed(rules, 1, 2): foreign}
        word = _packed(rules, 1, 1, 3)
        assert engine._settle(word, rules, 10, below) is None
        assert minimal_monomial((1, 1, 3), p) == (1, 2, 2)


# _full_fate of each presentation of enumerate_presentations(2, 3) at
# max_degree 8, in enumeration order: "d3" dies at degree 3, "r2" repeats at
# degree 2, "-" neither within the limit
FATES_2_3 = (
    "- - - - - - - - - - r3 r3 r3 r3 r3 r3 r3 d4 d4 r3 r3 r5 r3 r2 d3 r2 "
    "r4 r5 r3 r3 d4 r5 r5 r3 r3 r3 r3 d3 r4 r3 r3 d4 r5 r3 r5 r3 r3 r3 r3 "
    "r3 r2 r3 r5 r5 r3 r3 r4 r4 r4 d3 d3 d3 d3 r4 r4 r4 d3 d3 d3 d3 r3 r4 "
    "d3 d3 d3 d3 r4 d3 d3 d3 d3 d3 d3 d3 d3 r3 d3 d3 d3 d3 d3 r4 r4 r4 d3 "
    "d3 d3 d3 r4 r3 r3 d3 r3 r3 r4 d3 d3 d3 d3 r3 d3 r3 r3 d3 r2 r3 d3 d3 "
    "r3 r4 r4 d3 d3 d3 d3 r3 d3 r4 r4 r4 d3 r4 r4 r4 d3 d3 d3 r5 r4 r4 r4 "
    "d3 d3 d3 d3 r3 d3 r3 r3 d3 r3 r3 d3 d3 r3 d3 r4 r4 r4 d3 d3 d3 r4 r5 "
    "r4 d3 r3 r3 r4 r4 r3 d3 d3 r3 r4")


def _walk_only(p, limits):
    """(status, degree) of regularity_degree as found by the singular-set walk alone."""
    last = 0
    try:
        for degree, words in iter_singular_sets(p, limits):
            last = degree
            if not words:
                return "regular", degree
        return "irregular_up_to", limits.max_degree
    except ResourceExhausted:
        return "inconclusive", last


def _no_walk(*_args, **_kwargs):
    raise AssertionError("the singular sets were walked")


def _caps(limits):
    """The key of a fate record: the caps that bound a quotient chain."""
    return limits.max_class_size, limits.max_classes


def _census_open_steps(monkeypatch):
    """CENSUS_OPEN and a list that gains one entry per class quotient step."""
    steps = []
    step = engine._quotient_step

    def counted(*args):
        steps.append(args[0].degree + 1)
        return step(*args)

    monkeypatch.setattr(engine, "_quotient_step", counted)
    return parse_presentation(CENSUS_OPEN), steps


class TestRepeatingQuotient:
    """A repeating FULL class quotient settles regularity without a walk."""

    @pytest.mark.parametrize("max_degree", [12, 40])
    def test_open_census_presentation_is_settled_without_a_walk(self, monkeypatch,
                                                                max_degree):
        p = parse_presentation(CENSUS_OPEN)
        engine._rules.cache_clear()
        monkeypatch.setattr(engine, "iter_singular_sets", _no_walk)
        result = regularity_degree(p, EngineLimits(max_degree=max_degree))
        assert (result.status, result.degree) == ("irregular_up_to", max_degree)
        assert result.nilpotency_bound is None
        assert "repeats at degree 8" in result.detail

    def test_a_hilbert_profile_shares_the_fate(self, monkeypatch):
        p = parse_presentation(CENSUS_OPEN)
        engine._rules.cache_clear()
        hilbert_profile(p, 12)
        assert engine._rules(p, FULL).fates == {_caps(DEFAULT_LIMITS): ("repeats", 8)}
        monkeypatch.setattr(engine, "iter_singular_sets", _no_walk)
        monkeypatch.setattr(engine, "_quotient_step", _no_walk)
        assert regularity_degree(p, EngineLimits(max_degree=12)).status == "irregular_up_to"

    def test_capped_answers_do_not_depend_on_an_earlier_profile(self):
        # a fresh chain at these caps outgrows the cap before the repeat at
        # degree 8, so the walk decides; a default-cap profile's repeat
        # must not settle them
        p = parse_presentation(CENSUS_OPEN)
        caps = [EngineLimits(max_class_size=c, max_degree=12) for c in (3, 10, 30, 100)]
        fresh = []
        for limits in caps:
            engine._rules.cache_clear()
            fresh.append(regularity_degree(p, limits))
        assert [(r.status, r.degree) for r in fresh] == [
            ("inconclusive", 2), ("inconclusive", 3), ("inconclusive", 5),
            ("inconclusive", 6)]
        engine._rules.cache_clear()
        hilbert_profile(p, 12)
        assert [regularity_degree(p, limits) for limits in caps] == fresh

    def test_a_profile_under_other_caps_is_not_shared(self, monkeypatch):
        engine._rules.cache_clear()
        p, steps = _census_open_steps(monkeypatch)
        hilbert_profile(p, 12)
        limits = EngineLimits(max_class_size=1000, max_degree=12)
        del steps[:]
        monkeypatch.setattr(engine, "iter_singular_sets", _no_walk)
        assert regularity_degree(p, limits).status == "irregular_up_to"
        assert steps == list(range(2, 9))
        assert engine._rules(p, FULL).fates[_caps(limits)] == ("repeats", 8)
        del steps[:]
        assert regularity_degree(p, limits).status == "irregular_up_to"
        assert steps == []

    def test_a_fate_past_the_degree_cap_is_not_read(self, monkeypatch):
        engine._rules.cache_clear()
        p, steps = _census_open_steps(monkeypatch)
        hilbert_profile(p, 12)
        del steps[:]
        # a fresh chain stops at degree 7 = max_degree + 1, before the repeat
        assert engine._full_fate(p, EngineLimits(max_degree=6)) is None
        assert engine._full_fate(p, EngineLimits(max_degree=7)) == ("repeats", 8)
        assert steps == []

    def test_a_chain_whose_caps_change_is_rebuilt(self, monkeypatch):
        # stepped at the default caps to degree 7, the next step at cap 100
        # would meet the repeat at degree 8; a fresh chain at cap 100
        # outgrows it at degree 7 (169 words) and never sees the repeat
        engine._rules.cache_clear()
        p, steps = _census_open_steps(monkeypatch)
        basis = initial_basis(p, FULL)
        while basis.degree < 7:
            basis = next_minimal_basis(basis, p, FULL)
        small = EngineLimits(max_class_size=100, max_degree=12)
        del steps[:]
        with pytest.raises(ResourceExhausted) as err:
            next_minimal_basis(basis, p, FULL, small)
        assert err.value.degree == 7
        assert steps == list(range(2, 8))
        assert _caps(small) not in engine._rules(p, FULL).fates
        assert engine._full_fate(p, small) is None

    def test_answers_equal_the_walk(self, tower5):
        limits = EngineLimits(max_degree=12)
        # every QHS with n <= 4 is finite; the census presentation is not
        cases = [*(p for n in (1, 2, 3, 4) for p in qhs_census(n)),
                 tower5, build_regular_qhs(6), parse_presentation(CENSUS_OPEN)]
        settled = []
        for p in cases:
            result = regularity_degree(p, limits)
            assert (result.status, result.degree) == _walk_only(p, limits), p
            assert result.is_regular == (result.nilpotency_bound is not None)
            if result.detail:
                settled.append(p)
        assert settled == cases[-1:]

    def test_repeats_agree_with_the_oracle(self):
        # constant nonzero dimensions from the degree below the repeat on,
        # and none at the degree where the quotient dies
        top = 9
        repeats = 0
        for p in enumerate_presentations(2, 3):
            engine._rules.cache_clear()
            fate = engine._full_fate(p, EngineLimits(max_degree=top - 1))
            if fate is None:
                continue
            kind, m = fate
            if kind == "dies":
                assert not Partition(2, m, p, without_top=False).nonzero_minimals(), p
                continue
            repeats += 1
            dims = {len(Partition(2, k, p, without_top=False).nonzero_minimals())
                    for k in range(m - 1, top + 1)}
            assert len(dims) == 1 and 0 not in dims, (p, fate, dims)
        assert repeats > 0

    def test_trailing_zero_slots_still_repeat(self):
        # degree 2's classes x1x1 and x1x2 fill degree 1's slots with degree
        # 1's ids, and the three slots after x2 are zero: the blocks repeat
        # only once those trailing zero slots are ignored
        p = parse_presentation("generators 2\nx2*x2 = 0\nx2*x1 = 0\n")
        engine._rules.cache_clear()
        assert engine._full_fate(p, EngineLimits(max_degree=8)) == ("repeats", 2)

    def test_fates_are_frozen(self):
        fates = []
        for p in enumerate_presentations(2, 3):
            engine._rules.cache_clear()
            fate = engine._full_fate(p, EngineLimits(max_degree=8))
            fates.append("-" if fate is None else f"{fate[0][0]}{fate[1]}")
        assert " ".join(fates) == FATES_2_3

    def test_capped_run_is_settled_where_the_walk_is_inconclusive(self):
        # more conclusive, not looser: the repeat is exact whatever the cap
        p = parse_presentation(CENSUS_OPEN)
        limits = EngineLimits(max_class_size=1000, max_degree=12)
        assert _walk_only(p, limits) == ("inconclusive", 9)
        engine._rules.cache_clear()
        result = regularity_degree(p, limits)
        assert (result.status, result.degree) == ("irregular_up_to", 12)
