import pytest

import quadsemi.engine as engine
from quadsemi.analysis import (
    Dim3Report,
    HilbertProfile,
    dim3_report,
    hilbert_profile,
    profile_and_regularity,
    profile_to_json,
    total_dimension,
)
from quadsemi.census import enumerate_presentations
from quadsemi.engine import (
    EngineLimits,
    RegularityResult,
    ResourceExhausted,
    coset_class,
    iter_class,
    regularity_degree,
)
from quadsemi.model import IdealMode, Relation, presentation
from quadsemi.textio import parse_presentation

from small_qhs import qhs_census
from test_acceptance import CENSUS_OPEN, assert_gs_lower_bound

FREE2 = presentation(2, [])
COMMUTE2 = presentation(2, [Relation.equal((2, 1), (1, 2))])


class TestProfiles:
    def test_m1(self, m1):
        profile = hilbert_profile(m1)
        assert profile.dims == (1, 1, 0)
        assert profile.nilpotency_index == 2
        assert profile.verdict == "finite:2"
        assert total_dimension(profile) == 2

    def test_m2(self, m2):
        profile = hilbert_profile(m2)
        assert profile.dims == (1, 2, 2, 0)
        assert profile.nilpotency_index == 3
        assert total_dimension(profile) == 5

    def test_free_algebra_is_open(self):
        profile = hilbert_profile(FREE2, max_degree=3)
        assert profile.dims == (1, 2, 4, 8)
        assert profile.nilpotency_index is None
        assert profile.truncated_at == 3
        assert profile.verdict == "open:3"
        assert total_dimension(profile) is None

    def test_degree_zero_cap(self, m2):
        profile = hilbert_profile(m2, max_degree=0)
        assert profile.dims == (1,)
        assert profile.verdict == "open:0"

    @pytest.mark.parametrize("p, mode, match", [
        (presentation(2, [Relation.zero(1, 1)]), IdealMode.WITHOUT_TOP, "x2\\*x1"),
        (presentation(300, []), IdealMode.FULL, "255"),
    ], ids=["without-top", "alphabet"])
    def test_degree_zero_cap_checks_the_input(self, p, mode, match):
        for cap in (0, 1):
            with pytest.raises(ValueError, match=match):
                hilbert_profile(p, cap, mode)

    def test_negative_cap_rejected(self, m2):
        with pytest.raises(ValueError):
            hilbert_profile(m2, max_degree=-1)

    def test_reduced_mode_profile_differs(self, m2):
        # without the top monomial the square class x1x1 = x2x2 never dies
        profile = hilbert_profile(m2, max_degree=4, mode=IdealMode.WITHOUT_TOP)
        assert profile.dims[2] == 3
        assert profile.nilpotency_index is None

    def test_exhaustion_is_reported_not_raised(self):
        # commuting letters: degree m has m + 1 classes
        profile = hilbert_profile(COMMUTE2, max_degree=12,
                                  limits=EngineLimits(max_classes=6))
        assert profile.exhausted == 6
        assert profile.verdict == "inconclusive:6"
        assert total_dimension(profile) is None

    def test_exhaustion_at_the_first_class_past_the_cap(self):
        # commuting letters: a degree-m class holds the C(m, k) arrangements
        # of k ones, so the largest classes are C(6, 3) = 20, C(7, 3) = 35
        # and C(8, 4) = 70 at degrees 6, 7 and 8.  The quotient walks none
        # of them, so the class-size cap leaves the profile exact; only the
        # class that takes a degree past the width cap stops it
        for cap in (30, 35):
            profile = hilbert_profile(COMMUTE2, 12, limits=EngineLimits(max_class_size=cap))
            assert profile.verdict == "open:12"
            assert profile.dims == tuple(range(1, 14))
        profile = hilbert_profile(COMMUTE2, 12, limits=EngineLimits(max_classes=7))
        assert profile.exhausted == 7
        assert profile.dims == (1, 2, 3, 4, 5, 6, 7)
        assert profile.detail == "degree 7 has more than 7 classes"
        profile = hilbert_profile(COMMUTE2, 12, limits=EngineLimits(max_classes=8))
        assert profile.exhausted == 8
        assert profile.dims == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_exhaustion_at_the_first_degree_past_the_width_cap(self):
        # with only x1x1 zero, degrees 6 and 7 have 448 and 1224 classes
        p = presentation(3, [Relation.zero(1, 1)])
        profile = hilbert_profile(p, 12, limits=EngineLimits(max_classes=1000))
        assert profile.exhausted == 7
        assert profile.dims == (1, 3, 8, 22, 60, 164, 448)
        assert profile.detail == "degree 7 has more than 1000 classes"
        profile = hilbert_profile(p, 7, limits=EngineLimits(max_classes=1224))
        assert (profile.truncated_at, profile.dims[-1]) == (7, 1224)

    def test_zero_classes_are_not_sized(self):
        # every nonzero class up to degree 7 has at most 7 words, but the
        # zero class of x1x2x1x2x1x2x2 has 12
        p = presentation(3, [Relation.zero(2, 1), Relation.equal((1, 2), (3, 1))])
        word = (1, 2, 1, 2, 1, 2, 2)
        assert coset_class(word, p).is_zero
        assert sum(1 for _ in iter_class(word, p)) == 12
        profile = hilbert_profile(p, 7, limits=EngineLimits(max_class_size=7))
        assert profile.truncated_at == 7
        assert profile.dims == (1, 3, 7, 15, 31, 63, 127, 255)

    def test_zero_tail_and_branching_bound(self, m3, m4):
        for p in (m3, m4):
            profile = hilbert_profile(p)
            n = p.alphabet.n
            assert profile.dims[-1] == 0
            assert all(d > 0 for d in profile.dims[:-1])
            for a, b in zip(profile.dims[1:], profile.dims[2:]):
                assert b <= n * a
            assert_gs_lower_bound(p, profile)


class TestProfileAndRegularity:
    def test_answers_equal_the_separate_calls(self, m2, tower5):
        for p, limits in ((m2, EngineLimits()), (tower5, EngineLimits(max_degree=6)),
                          (tower5, EngineLimits(max_class_size=1, max_degree=12))):
            engine._rules.cache_clear()
            profile, regularity = profile_and_regularity(p, limits)
            engine._rules.cache_clear()
            assert profile == hilbert_profile(p, limits=limits)
            engine._rules.cache_clear()
            assert regularity == regularity_degree(p, limits)

    def test_a_non_qhs_is_refused_before_any_quotient_step(self, monkeypatch):
        def no_step(*_args):
            raise AssertionError("the class quotient was stepped")

        monkeypatch.setattr(engine, "_quotient_step", no_step)
        with pytest.raises(ValueError, match="valid QHS presentations only"):
            profile_and_regularity(FREE2)

    def test_one_quotient_chain(self, monkeypatch, tower5):
        # regularity reads the end of the quotient from the profile's chain,
        # so the pair steps as often as the profile alone: tower 5 dies at
        # degree 11, and CENSUS_OPEN repeats at 8, where the chain stops
        steps = []
        step = engine._quotient_step

        def counted(*args):
            steps.append(args[0].degree + 1)
            return step(*args)

        monkeypatch.setattr(engine, "_quotient_step", counted)
        limits = EngineLimits(max_degree=12)
        for p, count in ((tower5, 10), (parse_presentation(CENSUS_OPEN), 7)):
            for run in (lambda: hilbert_profile(p, limits=limits),
                        lambda: profile_and_regularity(p, limits)):
                engine._rules.cache_clear()
                steps.clear()
                run()
                assert len(steps) == count, p


class TestDim3:
    def test_m1(self, m1):
        report = dim3_report(m1)
        assert report == Dim3Report(n=1, relation_count=1, dim3=0, gs_value=-1)
        assert report.below_bound

    def test_m2(self, m2):
        report = dim3_report(m2)
        assert (report.dim3, report.gs_value) == (0, 0)
        assert not report.below_bound

    def test_free(self):
        report = dim3_report(FREE2)
        assert (report.dim3, report.gs_value) == (8, 8)
        assert not report.below_bound

    def test_cap_propagates(self):
        # degree 2 of commuting letters has 3 classes; its class x1x2 = x2x1
        # has 2 words, which no class-size cap reads
        with pytest.raises(ResourceExhausted) as err:
            dim3_report(COMMUTE2, EngineLimits(max_classes=2))
        assert str(err.value) == "degree 2 has more than 2 classes"
        assert err.value.degree == 2
        assert dim3_report(COMMUTE2, EngineLimits(max_class_size=1)).dim3 == 4

    def test_no_dimension_lies_under_the_bound(self):
        # Golod-Shafarevich: dim3 >= n*dim2 - d*n >= n^3 - 2*d*n for every
        # quadratic presentation, so the bound lies strictly below the
        # dimension or meets it
        cases = [*(p for n in (1, 2, 3, 4) for p in qhs_census(n)),
                 *enumerate_presentations(2, 4)]
        reports = [dim3_report(p) for p in cases]
        assert len(reports) == 732
        assert all(r.dim3 >= r.gs_value for r in reports)
        assert sum(r.below_bound for r in reports) == 688


class TestExports:
    def test_json_shape(self, m2):
        obj = profile_to_json(hilbert_profile(m2))
        assert obj == {
            "n": 2,
            "mode": "full",
            "dims": [1, 2, 2, 0],
            "nilpotency_index": 3,
            "truncated_at": None,
            "exhausted": None,
            "detail": "",
            "verdict": "finite:3",
        }

    def test_verdict_strings(self):
        assert HilbertProfile(2, IdealMode.FULL, (1,), truncated_at=0).verdict == "open:0"
        assert HilbertProfile(2, IdealMode.FULL, (1, 2), exhausted=2).verdict == "inconclusive:2"

    def test_regularity_verdict_strings(self):
        # the census token: an inconclusive answer carries no degree
        assert RegularityResult("regular", 4, 5).verdict == "regular:4"
        assert RegularityResult("irregular_up_to", 12).verdict == "irregular_up_to:12"
        assert RegularityResult("inconclusive", 3, None, "cap").verdict == "inconclusive"
