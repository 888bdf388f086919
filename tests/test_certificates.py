import pytest

from quadsemi.certificates import (
    Certificate,
    CertificateKind,
    certificate_is_valid,
    certificate_to_json,
    check_zero_sum,
    find_se_pair,
    search_certificate,
    verify_witness,
)
from quadsemi.engine import EngineLimits, ResourceExhausted
from quadsemi.model import Relation, presentation

COMMUTE2 = presentation(2, [Relation.equal((2, 1), (1, 2))])
SQUARE_ZERO = presentation(2, [Relation.zero(1, 1)])
# every unordered pair meets a support, no zero relations anywhere
ALL_BINOMIAL2 = presentation(
    2, [Relation.equal((2, 2), (1, 1)), Relation.equal((2, 1), (1, 2))]
)


class TestSePair:
    def test_commuting_pair_leaves_squares_alone(self):
        assert find_se_pair(COMMUTE2) == (1, 1)

    def test_qhs_coverage_blocks_every_pair(self, m4):
        assert find_se_pair(m4) is None

    def test_empty_presentation(self):
        assert find_se_pair(presentation(1, [])) == (1, 1)

    def test_single_square_zero(self):
        assert find_se_pair(SQUARE_ZERO) == (1, 2)

    def test_scan_order_is_smallest_first(self):
        p = presentation(3, [Relation.zero(1, 1)])
        assert find_se_pair(p) == (1, 2)


class TestZeroSum:
    def test_pure_binomials(self):
        assert check_zero_sum(COMMUTE2)
        assert check_zero_sum(ALL_BINOMIAL2)

    def test_zero_relation_blocks(self, m2):
        assert not check_zero_sum(m2)

    def test_vacuous_on_empty(self):
        assert check_zero_sum(presentation(2, []))


class TestSearch:
    def test_se_pair_preferred(self):
        cert = search_certificate(COMMUTE2)
        assert cert.kind is CertificateKind.SE_PAIR
        assert cert.pair == (1, 1)
        assert cert.found
        assert any("stable pair" in line for line in cert.transcript)

    def test_zero_sum_fallback(self):
        cert = search_certificate(ALL_BINOMIAL2)
        assert cert.kind is CertificateKind.ZERO_SUM
        assert cert.pair is None

    def test_qhs_gets_nothing(self, tower5):
        cert = search_certificate(tower5)
        assert cert.kind is CertificateKind.NONE
        assert not cert.found
        assert cert.reason == "bound exceeded, no certificate found"

    def test_transcript_reports_threshold_side(self, tower5):
        within = search_certificate(presentation(2, []))
        assert "within" in within.transcript[0]
        above = search_certificate(tower5)
        assert "above" in above.transcript[0]

    def test_guarantee_is_inclusive_at_the_boundary(self):
        # n=2 allows d=1 at the threshold (2^2+2)/4 = 1.5; n=3 allows d=3
        assert "within" in search_certificate(SQUARE_ZERO).transcript[0]
        p3 = presentation(3, [Relation.zero(1, 1), Relation.zero(2, 1), Relation.zero(2, 2)])
        assert "within" in search_certificate(p3).transcript[0]
        assert search_certificate(p3).found
        # the first k zero monomials, k = floor((n^2 + n) / 4) and one more
        for n in range(1, 31):
            monomials = [Relation.zero(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
            k = (n * n + n) // 4
            within = search_certificate(presentation(n, monomials[:k])).transcript[0]
            above = search_certificate(presentation(n, monomials[:k + 1])).transcript[0]
            assert within.endswith(": within") and above.endswith(": above"), n


class TestValidation:
    def test_returned_certificates_revalidate(self, m2):
        for p in (COMMUTE2, SQUARE_ZERO, ALL_BINOMIAL2):
            cert = search_certificate(p)
            assert certificate_is_valid(cert, p)

    def test_foreign_certificate_rejected(self, m2):
        cert = Certificate(CertificateKind.SE_PAIR, (1, 1))
        assert not certificate_is_valid(cert, m2)
        assert not certificate_is_valid(Certificate(CertificateKind.ZERO_SUM), m2)
        assert not certificate_is_valid(Certificate(CertificateKind.NONE), m2)

    def test_pair_out_of_range_rejected(self):
        cert = Certificate(CertificateKind.SE_PAIR, (1, 7))
        assert not certificate_is_valid(cert, COMMUTE2)
        assert not certificate_is_valid(Certificate(CertificateKind.SE_PAIR, None), COMMUTE2)


class TestWitness:
    def test_untouched_square_power(self):
        assert verify_witness((1, 1), 3, COMMUTE2)

    def test_alternating_power(self):
        assert verify_witness((1, 2), 2, SQUARE_ZERO)

    def test_bogus_pair_dies_immediately(self):
        p = presentation(2, [Relation.zero(1, 2)])
        assert not verify_witness((1, 2), 1, p)

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_witness((1, 1), 0, COMMUTE2)

    def test_resource_cap_propagates(self):
        with pytest.raises(ResourceExhausted):
            verify_witness((1, 2), 8, COMMUTE2, EngineLimits(max_class_size=10))


class TestWireFormat:
    def test_se_pair(self):
        cert = search_certificate(COMMUTE2)
        assert certificate_to_json(cert) == {"type": "se_pair", "a": 1, "b": 1}

    def test_zero_sum(self):
        cert = search_certificate(ALL_BINOMIAL2)
        assert certificate_to_json(cert) == {"type": "zero_sum"}

    def test_none_carries_reason(self, tower5):
        obj = certificate_to_json(search_certificate(tower5))
        assert obj == {"type": "none", "reason": "bound exceeded, no certificate found"}
