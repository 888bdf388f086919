import hashlib
import json
from pathlib import Path

import pytest

import quadsemi.engine as engine
from quadsemi.analysis import hilbert_profile, profile_and_regularity
from quadsemi.census import (
    CENSUS_LIMITS,
    census_csv,
    census_records,
    certificate_sweep,
    enumerate_presentations,
    enumerate_qhs,
    pure_bound_check,
    relation_universe,
)
from quadsemi.model import lower_pairs, presentation_hash, qhs_cardinality_bounds, validate_qhs

from small_qhs import qhs_census

N5_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "census_n5.json"


def _n5_verdicts():
    """The table's "regularity/hilbert" verdict of each n=5 QHS, in content order.

    The table is the benchmark's census, computed by whole-class walks: one
    verdict code per presentation, presentations in content order.
    """
    table = json.loads(N5_TABLE.read_text())
    codes = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [table["verdicts"][codes.index(c)] for c in table["verdict_codes"]]


def _n5_hilbert_table():
    """The n=5 QHS in content order, with their Hilbert verdicts from the table."""
    expected = [verdict.split("/")[1] for verdict in _n5_verdicts()]
    ranked = sorted(enumerate_qhs(5), key=lambda p: tuple(
        (r.left, r.right or (0, 0)) for r in p.relations))
    return ranked, expected


class TestQhsEnumeration:
    def test_counts(self):
        assert len(qhs_census(1)) == 1
        assert len(qhs_census(2)) == 2
        assert len(qhs_census(3)) == 13
        assert len(qhs_census(4)) == 331

    def test_order_is_frozen(self):
        # the served workload names its input files by this order
        digests = {
            1: "8ba88c0d3e8a0c27e75ec2f9bd355d1184dadf37d86d0dd01be7878a46ba658d",
            2: "825a7de233e18c625dae1891fb9c68f226e55991164da8d0a874596855ba367c",
            3: "af18ba60a3c2de402e8f86e00f387b3c1971e9dcb3ca30556f0d1e47098cec5a",
            4: "84f7fd83eb8a31c6202baa2a6bd2e83448037c8b3524df030fefb5e715f2b3e3",
        }
        for n, digest in digests.items():
            hashes = "".join(presentation_hash(p) for p in enumerate_qhs(n))
            assert hashlib.sha256(hashes.encode("ascii")).hexdigest() == digest, n

    @pytest.mark.slow
    def test_count_n5(self):
        assert sum(1 for _ in enumerate_qhs(5)) == 37611

    @pytest.mark.slow
    def test_n5_hilbert_verdicts_match_table(self):
        ranked, expected = _n5_hilbert_table()
        assert len(ranked) == len(expected) == 37611
        limits = CENSUS_LIMITS
        for i, p in enumerate(ranked):
            profile = hilbert_profile(p, limits.max_degree, limits=limits)
            assert profile.verdict == expected[i], (i, p)

    def test_every_97th_n5_verdict_matches_table(self):
        # both halves of the census verdict, from the call the census makes
        ranked, _hilbert = _n5_hilbert_table()
        table = _n5_verdicts()
        rows = range(0, len(ranked), 97)
        irregular = 0
        for i in rows:
            profile, regularity = profile_and_regularity(ranked[i], CENSUS_LIMITS)
            assert f"{regularity.verdict}/{profile.verdict}" == table[i], (i, ranked[i])
            irregular += regularity.verdict == "irregular_up_to:12"
        assert (len(rows), irregular) == (388, 2)

    def test_n5_nilpotency_within_one_of_regularity(self):
        # a degree r with no singular words makes the algebra nilpotent of
        # index at most r + 1, so every decided row has N <= r + 1
        decided = 0
        for verdict in _n5_verdicts():
            regularity, hilbert = verdict.split("/")
            if regularity.startswith("regular:") and hilbert.startswith("finite:"):
                decided += 1
                r = int(regularity.split(":")[1])
                assert int(hilbert.split(":")[1]) <= r + 1, (regularity, hilbert)
        assert decided == 37414

    @pytest.mark.slow
    def test_n5_open_profiles_are_irregular_without_a_walk(self, monkeypatch):
        # the table's open verdicts are exactly the open profiles (test above)
        ranked, expected = _n5_hilbert_table()
        limits = CENSUS_LIMITS

        def no_walk(*_args):
            raise AssertionError("the singular sets were walked")

        monkeypatch.setattr(engine, "iter_singular_sets", no_walk)
        open_ones = [p for p, verdict in zip(ranked, expected) if verdict == "open:12"]
        assert len(open_ones) == 197
        for p in open_ones:
            result = engine.regularity_degree(p, limits)
            assert (result.status, result.degree) == ("irregular_up_to", 12), p
            assert hilbert_profile(p, limits.max_degree, limits=limits).verdict == "open:12"

    def test_all_valid_and_distinct(self):
        for n in (1, 2, 3):
            seen = set(qhs_census(n))
            assert len(seen) == len(qhs_census(n))
            for p in qhs_census(n):
                assert validate_qhs(p).valid

    def test_sizes_stay_within_bounds(self):
        for n in (2, 3, 4):
            lo, hi = qhs_cardinality_bounds(n)
            sizes = {len(p.relations) for p in qhs_census(n)}
            assert min(sizes) == lo
            assert max(sizes) == hi

    def test_n2_matches_subset_filter(self):
        # independent recount: filter every small relation subset into QHS
        want = {p for p in qhs_census(2)}
        got = {
            p
            for p in enumerate_presentations(2, len(lower_pairs(2)))
            if p.is_qhs
        }
        assert got == want

    def test_supports_partition_lower_pairs(self):
        for p in qhs_census(3):
            covered = sorted(q for rel in p.relations for q in rel.support)
            assert covered == sorted(lower_pairs(3))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_qhs(6))
        with pytest.raises(ValueError):
            list(enumerate_qhs(0))


class TestGeneralEnumeration:
    def test_universe_sizes(self):
        assert len(relation_universe(1)) == 1
        assert len(relation_universe(2)) == 10
        assert len(relation_universe(3)) == 45

    def test_counts(self):
        assert sum(1 for _ in enumerate_presentations(1, 1)) == 1
        assert sum(1 for _ in enumerate_presentations(2, 1)) == 10
        assert sum(1 for _ in enumerate_presentations(2, 2)) == 55

    @pytest.mark.slow
    def test_count_n3_d3(self):
        assert sum(1 for _ in enumerate_presentations(3, 3)) == 15225

    def test_distinct(self):
        everything = list(enumerate_presentations(2, 2))
        assert len(set(everything)) == len(everything)

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_presentations(4, 1))
        with pytest.raises(ValueError):
            list(enumerate_presentations(2, 0))


class TestPureBound:
    def test_n3(self):
        report = pure_bound_check(3)
        assert report.bound == 4
        assert report.qhs_count == 13
        assert report.all_pure_count == 9
        assert report.min_size == 4
        assert report.holds

    def test_n4(self):
        report = pure_bound_check(4)
        assert report.bound == 6
        assert report.qhs_count == 331
        assert report.all_pure_count == 129
        assert report.min_size == 6
        assert report.holds


class TestCertificateSweep:
    def test_n2_complete(self):
        report = certificate_sweep(2, verify_k=4)
        assert report.d_max == 1
        assert report.total == 11
        assert report.se_pair_count == 11
        assert report.zero_sum_count == 0
        assert report.uncertified == 0
        assert report.invalid == 0
        assert report.witness_failures == 0
        assert report.all_certified

    def test_n3_complete(self):
        report = certificate_sweep(3)
        assert report.d_max == 3
        assert report.total == 15226
        assert report.se_pair_count == 15106
        assert report.zero_sum_count == 120
        assert report.uncertified == 0
        assert report.invalid == 0
        assert report.all_certified

    def test_d_max_is_the_threshold(self):
        # floor((n^2 + n) / 4), the largest d the guarantee covers; the two
        # tests above pin n = 2 and 3 as 1 and 3
        report = certificate_sweep(1)
        assert report.d_max == (1 * 1 + 1) // 4 == 0
        assert report.total == 1 and report.all_certified


class TestCensus:
    def test_n2_records(self):
        records = census_records(2)
        assert [r.uid for r in records] == sorted(r.uid for r in records)
        assert [(r.d, r.qhs, r.all_pure, r.verdict, r.certificate) for r in records] == [
            (2, True, True, "regular:2/finite:3", "none"),
            (3, True, True, "regular:2/finite:3", "none"),
        ]

    def test_n3_verdict_tally(self):
        records = census_records(3)
        assert len(records) == 13
        tally = {}
        for r in records:
            tally[r.verdict] = tally.get(r.verdict, 0) + 1
        assert tally == {"regular:3/finite:4": 9, "regular:4/finite:5": 4}
        assert all(r.certificate == "none" for r in records)
        assert sum(r.all_pure for r in records) == 9

    def test_csv_is_byte_deterministic(self):
        records = census_records(2)
        text = census_csv(records)
        assert text == census_csv(census_records(2))
        lines = text.splitlines()
        assert lines[0] == "id,d,qhs,all_pure,verdict,certificate"
        assert len(lines) == 3
        for line, record in zip(lines[1:], records):
            assert line == (
                f"{record.uid},{record.d},true,true,{record.verdict},none"
            )

    def test_tight_caps_go_inconclusive_not_wrong(self):
        # the class-size cap bounds the regularity walks (the first half of
        # a verdict), the width cap the class quotient of the profile
        from quadsemi.engine import EngineLimits

        default = {r.uid: r.verdict.split("/") for r in census_records(3)}
        for capped, limits in enumerate((EngineLimits(max_class_size=1, max_degree=12),
                                         EngineLimits(max_classes=2, max_degree=12))):
            tight = [(default[r.uid], r.verdict.split("/")) for r in census_records(3, limits)]
            for want, got in tight:
                assert got[1 - capped] == want[1 - capped]
                assert got[capped] == want[capped] or "inconclusive" in got[capped]
            assert any("inconclusive" in got[capped] for _want, got in tight)


class TestQhsNeverCertified:
    def test_every_small_qhs_is_uncertifiable(self):
        # coverage removes stable pairs and the top zero kills the sum trick
        from quadsemi.certificates import search_certificate

        for n in (1, 2, 3):
            for p in qhs_census(n):
                assert not search_certificate(p).found
