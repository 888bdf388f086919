"""Property tests: engine results against the definitional oracle, plus
order and serialisation laws on randomly drawn presentations."""

from hypothesis import given, settings, strategies as st

import bruteforce
from small_qhs import qhs_census

import quadsemi.engine as engine
from quadsemi.analysis import hilbert_profile
from quadsemi.census import CENSUS_LIMITS, relation_universe
from quadsemi.constructions import build_regular_qhs
from quadsemi.engine import (
    DEFAULT_LIMITS,
    EngineLimits,
    classify,
    coset_class,
    initial_basis,
    minimal_monomial,
    next_minimal_basis,
)
from quadsemi.model import (
    IdealMode,
    delta,
    opposite,
    pair_key,
    presentation,
    presentation_hash,
    rtl_key,
    rtl_lex_cmp,
)
from quadsemi.textio import parse_presentation, render_json, render_presentation

from test_acceptance import CENSUS_OPEN
from test_census import _n5_hilbert_table

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def words(n: int, max_degree: int = 5):
    return st.lists(
        st.integers(min_value=1, max_value=n), min_size=1, max_size=max_degree
    ).map(tuple)


@st.composite
def random_presentations(draw):
    """Arbitrary small relation sets on up to 3 generators; QHS not required."""
    n = draw(st.integers(min_value=1, max_value=3))
    universe = relation_universe(n)
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(universe) - 1),
            max_size=4,
            unique=True,
        )
    )
    return presentation(n, [universe[i] for i in indices])


@st.composite
def small_qhs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return draw(st.sampled_from(qhs_census(n)))


def _reference_top_suffix_witness(v, w, m, top):
    """Reference tame-witness rule on tuples: v holds the top letter at the
    last position where v and w differ or after it (anywhere when v == w)."""
    if top not in v:
        return False
    s = 0
    while s < m and v[m - 1 - s] == w[m - 1 - s]:
        s += 1
    start = m - s - 1
    if start < 0:
        start = 0
    return top in v[start:]


class TestPackedWords:
    """The engine's packed words: k = n.bit_length() bits per letter."""

    @given(st.data())
    def test_packing_keeps_letters_order_and_the_tame_rule(self, data):
        n = data.draw(st.sampled_from([*range(1, 10), 255]))
        m = data.draw(st.integers(min_value=1, max_value=12))
        # the top letter is drawn often, as classify meets it in class members
        letters = st.one_of(st.just(n), st.integers(min_value=1, max_value=n))
        w = tuple(data.draw(st.lists(letters, min_size=m, max_size=m)))
        # v shares a suffix of w, of any length, as class members often do
        j = data.draw(st.integers(min_value=0, max_value=m))
        v = tuple(data.draw(st.lists(letters, min_size=j, max_size=j))) + w[j:]
        k = n.bit_length()
        pw, pv = engine._pack(w, k), engine._pack(v, k)
        assert engine._unpack(pw, k) == w
        assert engine._unpack(pv, k) == v
        assert (pv > pw) - (pv < pw) == rtl_lex_cmp(v, w)
        above = engine._top_above(pw, k, n)
        assert above == max((i for i, x in enumerate(w) if x == n), default=-1)
        assert (engine._top_suffix_witness(pv, pw, k, n, above)
                == _reference_top_suffix_witness(v, w, m, n))


class TestOrderLaws:
    @given(st.data())
    def test_cmp_matches_reversed_key(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        m = data.draw(st.integers(min_value=1, max_value=6))
        u = tuple(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
        v = tuple(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
        cmp = rtl_lex_cmp(u, v)
        if rtl_key(u) < rtl_key(v):
            assert cmp == -1
        elif rtl_key(u) > rtl_key(v):
            assert cmp == 1
        else:
            assert cmp == 0
        assert rtl_lex_cmp(v, u) == -cmp
        assert bruteforce.rtl_less(u, v) == (cmp == -1)

    @given(st.data())
    def test_pair_key_orders_pairs_like_words(self, data):
        p = tuple(data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=2)))
        q = tuple(data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=2)))
        assert (pair_key(p) < pair_key(q)) == (rtl_key(p) < rtl_key(q))


class TestEngineAgainstOracle:
    @given(random_presentations(), st.integers(min_value=1, max_value=4))
    def test_minimal_bases_match_partition(self, p, m):
        oracle = bruteforce.Partition(p.alphabet.n, m, p, without_top=False)
        basis = initial_basis(p, IdealMode.FULL)
        for _ in range(m - 1):
            basis = next_minimal_basis(basis, p, IdealMode.FULL)
        assert list(basis.minimals) == oracle.nonzero_minimals()

    @given(random_presentations(), st.data())
    def test_single_word_class_matches_partition(self, p, data):
        n = p.alphabet.n
        w = data.draw(words(n, max_degree=4))
        oracle = bruteforce.Partition(n, len(w), p, without_top=False)
        cls = coset_class(w, p, IdealMode.FULL)
        if oracle.is_zero(w):
            assert cls.is_zero
        else:
            assert set(cls.members) == set(oracle.class_of(w))
            assert cls.minimal == oracle.minimal_of(w)

    @given(small_qhs(), st.data())
    def test_classification_matches_partition(self, p, data):
        n = p.alphabet.n
        w = data.draw(words(n, max_degree=4))
        oracle = bruteforce.Partition(n, len(w), p, without_top=True)
        got = classify(w, p).value
        if oracle.is_zero(w):
            assert got == "zero"
        elif oracle.minimal_of(w) != w:
            assert got == "non_minimal"
        elif oracle.is_tame(w):
            assert got == "tame"
        else:
            assert got == "singular"

    @given(small_qhs(), st.data())
    def test_minimal_monomial_is_idempotent_and_decreasing(self, p, data):
        w = data.draw(words(p.alphabet.n, max_degree=5))
        v = minimal_monomial(w, p, IdealMode.WITHOUT_TOP)
        if v is not None:
            assert rtl_key(v) <= rtl_key(w)
            assert minimal_monomial(v, p, IdealMode.WITHOUT_TOP) == v


class TestQhsStructure:
    @given(small_qhs())
    def test_rewrites_strictly_decrease(self, p):
        for rel in (r for r in p.relations if not r.is_zero):
            assert pair_key(rel.right) < pair_key(rel.left)

    @given(small_qhs())
    def test_size_bounds(self, p):
        n = p.alphabet.n
        assert delta(n) <= len(p.relations) <= n * (n + 1) // 2

    @given(small_qhs())
    def test_round_trips(self, p):
        assert parse_presentation(render_presentation(p)) == p
        assert parse_presentation(render_json(p)) == p

    @given(small_qhs(), small_qhs())
    def test_hash_separates_content(self, p, q):
        if p == q:
            assert presentation_hash(p) == presentation_hash(q)
        else:
            assert presentation_hash(p) != presentation_hash(q)

    @given(small_qhs(), st.data())
    def test_dropping_any_relation_invalidates(self, p, data):
        index = data.draw(st.integers(min_value=0, max_value=len(p.relations) - 1))
        rels = [r for i, r in enumerate(p.relations) if i != index]
        reduced = presentation(p.alphabet.n, rels)
        assert not reduced.is_qhs


def _assert_dual(p, limits=DEFAULT_LIMITS):
    """The opposite presentation is a QHS exactly when p is, twice is p, and
    its Hilbert profile has the same dimensions and verdict."""
    q = opposite(p)
    assert q.is_qhs == p.is_qhs
    assert opposite(q) == p
    a = hilbert_profile(p, limits=limits)
    b = hilbert_profile(q, limits=limits)
    assert (a.dims, a.verdict) == (b.dims, b.verdict), p


class TestOpposite:
    """Reversal duality: an oracle for dimensions past the brute force."""

    @given(st.one_of(random_presentations(),
                     st.integers(min_value=1, max_value=4).flatmap(
                         lambda n: st.sampled_from(qhs_census(n)))),
           st.integers(min_value=1, max_value=10),
           st.sampled_from([1, 2, 5, 30, DEFAULT_LIMITS.max_class_size]))
    def test_small_presentations(self, p, max_degree, cap):
        _assert_dual(p, EngineLimits(max_class_size=cap, max_degree=max_degree))

    def test_towers(self):
        for n in (5, 6, 7):
            p = build_regular_qhs(n)
            assert p.is_qhs and opposite(p) != p
            _assert_dual(p)

    def test_census_open_cases(self):
        ranked, expected = _n5_hilbert_table()
        opens = [p for p, verdict in zip(ranked, expected) if verdict.startswith("open")]
        assert len(opens) == 197 and parse_presentation(CENSUS_OPEN) in opens
        for p in opens[::4]:
            _assert_dual(p, CENSUS_LIMITS)
