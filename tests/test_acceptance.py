"""Acceptance suite: one test per contract criterion, frozen expected values.

Every numeric expectation here was either computed by an independent oracle
(the brute-force partition in bruteforce.py), taken from the package's own
first verified run and frozen as a regression baseline, or is immediate
arithmetic.  Budgets are asserted where the contract states one.
"""

import time
from itertools import islice

import pytest

import bruteforce
from small_qhs import qhs_census

from quadsemi.analysis import hilbert_profile
from quadsemi.census import certificate_sweep, enumerate_presentations, pure_bound_check
from quadsemi.constructions import base_qhs, build_regular_qhs, power_witness
from quadsemi.engine import (
    EngineLimits,
    initial_basis,
    iter_singular_sets,
    next_minimal_basis,
    regularity_degree,
    singular_monomials,
)
from quadsemi.model import IdealMode, delta, is_pure, pair_key, presentation, validate_qhs
from quadsemi.textio import parse_presentation

# regression baselines from the first verified runs of this package
N5_REGULARITY = 10
N5_DIMS = (1, 5, 17, 45, 90, 123, 109, 69, 34, 12, 2, 0)
N6_REGULARITY = 14
N6_DIMS = (1, 6, 25, 84, 230, 487, 775, 931, 861, 638, 388, 192, 73, 18, 2, 0)
N7_REGULARITY = 18
N7_DIMS = (1, 7, 34, 134, 439, 1192, 2639, 4705, 6746, 7838, 7506, 6026, 4100, 2368,
           1149, 461, 148, 34, 4, 0)
# n=8 singular-set sizes by degree, as far as the first oracle run reached
N8_SINGULAR_SIZES = (7, 37, 163, 610, 1919, 5028, 10847, 19234, 28173, 34532, 35962, 32232)
# singular-set sizes by degree, frozen from the word-by-word singular-set walk
N5_SINGULAR_SIZES = (4, 12, 28, 48, 53, 36, 16, 6, 1, 0)
N6_SINGULAR_SIZES = (5, 19, 59, 146, 264, 347, 343, 266, 168, 87, 35, 9, 1, 0)
# n=5 census presentation #12070 in content order: open at the census
# degree cap of 12, with ten singular words at every degree from 5 on
CENSUS_OPEN = """\
generators 5
x2*x1 = 0
x4*x1 = 0
x5*x1 = 0
x4*x2 = 0
x5*x2 = 0
x4*x3 = x1*x1
x5*x3 = x3*x1
x4*x4 = x3*x3
x5*x4 = x2*x2
x5*x5 = x3*x2
"""
CENSUS_OPEN_SINGULAR_SIZES = (4, 10, 15, 12) + (10,) * 8


def assert_gs_lower_bound(p, profile):
    """Check a_k >= n*a_(k-1) - d*a_(k-2) along a FULL profile of p, d its relation count.

    This is the Golod-Shafarevich lower bound: degree k of a quadratic
    algebra is degree k-1 times the n letters, modulo the images of the d
    relations times degree k-2.
    """
    assert profile.mode is IdealMode.FULL
    n, d, a = p.alphabet.n, len(p.relations), profile.dims
    for k in range(2, len(a)):
        assert a[k] >= n * a[k - 1] - d * a[k - 2], (p, k, a)


def test_criterion_01_delta_arithmetic():
    start = time.perf_counter()
    for n in range(1, 10_001):
        assert delta(n) == (n * n + n) // 4 + 1
    assert time.perf_counter() - start < 1.0


def test_criterion_02_base_cases():
    start = time.perf_counter()
    for m in (1, 2, 3, 4):
        p = base_qhs(m)
        assert validate_qhs(p).valid
        assert singular_monomials(p, m) == ()
        assert all(is_pure(c, p) for c in p.alphabet.letters())
    assert time.perf_counter() - start < 1.0


def test_criterion_03_construction_sizes():
    start = time.perf_counter()
    for n in range(1, 14):
        p = build_regular_qhs(n)
        assert validate_qhs(p).valid
        assert len(p.relations) == delta(n)
    for n, size in ((5, 8), (6, 11), (7, 15), (8, 19)):
        assert delta(n) == size
    assert time.perf_counter() - start < 1.0


def test_criterion_04a_tower5_finite():
    start = time.perf_counter()
    p = build_regular_qhs(5)
    result = regularity_degree(p, EngineLimits(max_degree=40))
    assert result.status == "regular"
    assert result.degree == N5_REGULARITY
    profile = hilbert_profile(p, max_degree=40)
    assert profile.dims == N5_DIMS
    assert_gs_lower_bound(p, profile)
    assert profile.nilpotency_index == 11
    assert profile.nilpotency_index <= result.degree + 1
    assert time.perf_counter() - start < 120.0


def test_criterion_04b_tower6_finite():
    start = time.perf_counter()
    p = build_regular_qhs(6)
    result = regularity_degree(p, EngineLimits(max_degree=40))
    assert result.status == "regular"
    assert result.degree == N6_REGULARITY
    profile = hilbert_profile(p, max_degree=40)
    assert profile.dims == N6_DIMS
    assert_gs_lower_bound(p, profile)
    assert profile.nilpotency_index == 15
    assert profile.nilpotency_index <= result.degree + 1
    assert time.perf_counter() - start < 120.0


@pytest.mark.slow
def test_criterion_04c_tower7_best_effort():
    p = build_regular_qhs(7)
    result = regularity_degree(p, EngineLimits(max_degree=64))
    assert result.status == "regular"
    assert result.degree == N7_REGULARITY
    profile = hilbert_profile(p, max_degree=64)
    assert profile.dims == N7_DIMS
    assert_gs_lower_bound(p, profile)
    assert profile.nilpotency_index == 19
    assert profile.nilpotency_index <= result.degree + 1


@pytest.mark.slow
def test_criterion_04d_tower8_best_effort():
    # the full search is out of desk range; a degree cap, not a clock, sets
    # how far the walk goes, so every host checks the same 11 degrees
    chain = iter_singular_sets(build_regular_qhs(8), EngineLimits(max_degree=11))
    assert tuple(len(words) for _d, words in chain) == N8_SINGULAR_SIZES[:11]


def test_criterion_04e_singular_set_sizes():
    cases = (
        (build_regular_qhs(5), 40, N5_SINGULAR_SIZES),
        (build_regular_qhs(6), 40, N6_SINGULAR_SIZES),
        (parse_presentation(CENSUS_OPEN), 12, CENSUS_OPEN_SINGULAR_SIZES),
    )
    for p, cap, expected in cases:
        chain = iter_singular_sets(p, EngineLimits(max_degree=cap))
        assert tuple(len(words) for _d, words in chain) == expected, p


def test_criterion_05_power_word_reaches_top():
    for n, q in ((5, 8), (6, 11)):
        start = time.perf_counter()
        p = build_regular_qhs(n)
        witness = power_witness(p, q)
        assert witness is not None
        assert len(witness) == q
        assert witness[-1] == n
        assert time.perf_counter() - start <= 30.0


def test_criterion_06_certificate_completeness_sweep():
    start = time.perf_counter()
    for n in (2, 3):
        report = certificate_sweep(n, verify_k=4)
        assert report.uncertified == 0
        assert report.invalid == 0
        assert report.witness_failures == 0
        assert report.all_certified
    assert time.perf_counter() - start <= 600.0


def _spot_presentations():
    picks = [presentation(n, []) for n in (1, 2, 3)]
    stream = enumerate_presentations(3, 2)
    picks.extend(islice(stream, 0, None, 40))
    return picks


def test_criterion_07_oracle_equivalence():
    cases = []
    for n in (1, 2, 3, 4):
        for p in qhs_census(n):
            cases.append((p, IdealMode.FULL, False))
            cases.append((p, IdealMode.WITHOUT_TOP, True))
    for p in _spot_presentations():
        cases.append((p, IdealMode.FULL, False))
    # includes monomials that are both zero and a side of a binomial
    for p in enumerate_presentations(2, 3):
        cases.append((p, IdealMode.FULL, False))
    for p, mode, without_top in cases:
        n = p.alphabet.n
        basis = initial_basis(p, mode)
        for m in range(1, 6):
            if m > 1:
                basis = next_minimal_basis(basis, p, mode)
            oracle = bruteforce.Partition(n, m, p, without_top)
            expected = oracle.nonzero_minimals()
            assert len(basis.minimals) == len(expected), (p, mode, m)
            assert list(basis.minimals) == expected, (p, mode, m)
            if without_top:
                singular = oracle.singular_words()
                assert list(singular_monomials(p, m)) == singular, (p, m)
            if not basis.minimals:
                break


def _singular_chain(p, max_degree):
    chain = {}
    for degree, found in iter_singular_sets(p, EngineLimits(max_degree=max_degree)):
        chain[degree] = set(found)
        if not found:
            break
    return chain


def test_criterion_08a_factor_closure():
    for n in (1, 2, 3, 4):
        for p in qhs_census(n):
            chain = _singular_chain(p, 6)
            for m, found in chain.items():
                if m == 1:
                    continue
                below = chain[m - 1]
                for w in found:
                    assert w[:-1] in below, (p, w)
                    assert w[1:] in below, (p, w)


def test_criterion_08b_pure_position_bound():
    for n in (1, 2, 3, 4):
        for p in qhs_census(n):
            pure = {c for c in p.alphabet.letters() if is_pure(c, p)}
            for found in _singular_chain(p, 6).values():
                for w in found:
                    assert sum(1 for c in w if c in pure) <= n - 1, (p, w)


def test_criterion_08c_tower5_letter_count_bound():
    p = build_regular_qhs(5)
    special = {2, 4, 5}
    for found in _singular_chain(p, 40).values():
        for w in found:
            assert sum(1 for c in w if c in special) <= 4, w


def test_criterion_08d_rewrites_decrease():
    for n in range(1, 14):
        p = build_regular_qhs(n)
        contexts = [((), ()), ((1,), ()), ((), (1,)), ((n, n), (1, 1))]
        for rel in (r for r in p.relations if not r.is_zero):
            assert pair_key(rel.right) < pair_key(rel.left), rel
            for head, tail in contexts:
                bigger = head + rel.left + tail
                smaller = head + rel.right + tail
                assert bruteforce.rtl_less(smaller, bigger), (rel, head, tail)


def test_criterion_09_pure_bound_census():
    start = time.perf_counter()
    report3 = pure_bound_check(3)
    assert report3.holds
    assert report3.min_size == 4
    report4 = pure_bound_check(4)
    assert report4.holds
    assert report4.min_size == 6
    assert time.perf_counter() - start <= 300.0


def test_criterion_10_known_small_profiles():
    assert hilbert_profile(base_qhs(1)).dims == (1, 1, 0)
    assert hilbert_profile(base_qhs(2)).dims == (1, 2, 2, 0)
