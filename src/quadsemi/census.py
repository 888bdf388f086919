"""Exhaustive enumeration of presentations at tiny n, with verdict tables.

A QHS is exactly a partition of the lower pairs {ab : a >= b} into zero
singletons and shape-valid equality two-sets, so QHS enumeration recurses
on the first unmatched pair.  General presentations are plain subsets of
the full relation universe (n^2 zero monomials plus one binomial per
unordered pair of distinct monomials).  On top of the two enumerators sit
the all-pure minimum-size check, the certificate completeness sweep, and a
CSV census of every QHS with regularity and Hilbert verdicts under tight
resource caps; capped entries are labeled inconclusive, never guessed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations

from .analysis import profile_and_regularity
from .certificates import (
    CertificateKind,
    certificate_is_valid,
    search_certificate,
    verify_witness,
)
from .constructions import wisliceny_count
from .engine import EngineLimits
from .model import (
    Presentation,
    Relation,
    delta,
    is_pure,
    presentation,
    presentation_hash,
)

QHS_ENUM_CAP = 5
GENERAL_ENUM_CAP = 3

CENSUS_LIMITS = EngineLimits(max_class_size=100_000, max_degree=12)


def enumerate_qhs(n: int):
    """Yield every QHS on n generators exactly once, in a canonical order.

    Recursion: the first unmatched lower pair is either a zero relation or
    matched with one later unmatched pair; only relations a QHS may hold
    are followed, each built once per call.  Feasible for n <= 5.
    """
    if not 1 <= n <= QHS_ENUM_CAP:
        raise ValueError(f"QHS enumeration is capped at n <= {QHS_ENUM_CAP}")
    zero: dict = {}
    equal: dict = {}
    for rel in relation_universe(n):
        if not rel._fits_qhs():
            continue
        if rel.is_zero:
            zero[rel.left] = rel
        else:
            # the left side is the later pair, so the unmatched head is the right
            equal[(rel.right, rel.left)] = rel

    def rec(unused: tuple, acc: list):
        if not unused:
            yield presentation(n, acc)
            return
        head = unused[0]
        rest = unused[1:]
        acc.append(zero[head])
        yield from rec(rest, acc)
        acc.pop()
        for i, other in enumerate(rest):
            rel = equal.get((head, other))
            if rel is None:
                continue
            acc.append(rel)
            yield from rec(rest[:i] + rest[i + 1:], acc)
            acc.pop()

    # the admissible zero monomials are the lower pairs, already in pair order
    yield from rec(tuple(zero), [])


def relation_universe(n: int) -> tuple:
    """Every possible relation on n generators, canonically sorted."""
    monomials = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    rels = [Relation.zero(*p) for p in monomials]
    rels.extend(Relation.equal(p, q) for p, q in combinations(monomials, 2))
    rels.sort(key=Relation.sort_key)
    return tuple(rels)


def enumerate_presentations(n: int, d_max: int):
    """Yield every nonempty presentation with at most d_max relations.

    The universe has n^2 zero relations plus C(n^2, 2) binomials; subsets
    are emitted smallest size first, each in one canonical form.  Feasible
    for n <= 3 and small d_max.
    """
    if not 1 <= n <= GENERAL_ENUM_CAP:
        raise ValueError(f"general enumeration is capped at n <= {GENERAL_ENUM_CAP}")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    universe = relation_universe(n)
    for size in range(1, min(d_max, len(universe)) + 1):
        for combo in combinations(universe, size):
            yield presentation(n, list(combo))


@dataclass(frozen=True)
class PureBoundReport:
    """Minimum relation count over the all-pure QHS on n generators."""

    n: int
    bound: int
    qhs_count: int
    all_pure_count: int
    min_size: int | None

    @property
    def holds(self) -> bool:
        return self.min_size is None or self.min_size >= self.bound


def pure_bound_check(n: int) -> PureBoundReport:
    """Exhaustively confirm the all-pure relation-count lower bound.

    The bound is ``wisliceny_count(n)``; the report carries the minimum
    size actually achieved so callers can see whether it is sharp.
    """
    qhs_count = 0
    pure_count = 0
    min_size: int | None = None
    for p in enumerate_qhs(n):
        qhs_count += 1
        if all(is_pure(c, p) for c in p.alphabet.letters()):
            pure_count += 1
            d = len(p.relations)
            if min_size is None or d < min_size:
                min_size = d
    return PureBoundReport(n, wisliceny_count(n), qhs_count, pure_count, min_size)


@dataclass(frozen=True)
class SweepReport:
    """Certificate tally over all presentations with few enough relations.

    The sweep covers the empty presentation and every nonempty one with
    d <= floor((n^2 + n) / 4), the regime where a certificate is promised.
    uncertified counts presentations where the search came back empty;
    invalid counts returned certificates that failed re-validation; and
    witness_failures counts stable pairs whose power word unexpectedly
    died, when such verification was requested.
    """

    n: int
    d_max: int
    total: int
    se_pair_count: int
    zero_sum_count: int
    uncertified: int
    invalid: int
    witness_failures: int

    @property
    def all_certified(self) -> bool:
        return self.uncertified == 0 and self.invalid == 0


def certificate_sweep(n: int, verify_k: int | None = None) -> SweepReport:
    """Run the certificate search over every presentation under the bound."""
    d_max = delta(n) - 1
    total = 0
    kinds = {CertificateKind.SE_PAIR: 0, CertificateKind.ZERO_SUM: 0}
    uncertified = 0
    invalid = 0
    witness_failures = 0

    def visit(p: Presentation):
        nonlocal total, uncertified, invalid, witness_failures
        total += 1
        cert = search_certificate(p)
        if not cert.found:
            uncertified += 1
            return
        if not certificate_is_valid(cert, p):
            invalid += 1
            return
        kinds[cert.kind] += 1
        if verify_k is not None and cert.kind is CertificateKind.SE_PAIR:
            if not verify_witness(cert.pair, verify_k, p):
                witness_failures += 1

    visit(presentation(n, []))
    for p in enumerate_presentations(n, d_max) if d_max else ():
        visit(p)
    return SweepReport(
        n,
        d_max,
        total,
        kinds[CertificateKind.SE_PAIR],
        kinds[CertificateKind.ZERO_SUM],
        uncertified,
        invalid,
        witness_failures,
    )


@dataclass(frozen=True)
class CensusRecord:
    uid: str
    d: int
    qhs: bool
    all_pure: bool
    verdict: str
    certificate: str


def census_records(n: int, limits: EngineLimits = CENSUS_LIMITS) -> list:
    """One record per QHS on n generators, sorted by content hash.

    The verdict column joins the regularity outcome and the Hilbert
    outcome with a slash, each computed under the given caps.
    """
    records = []
    for p in enumerate_qhs(n):
        profile, regularity = profile_and_regularity(p, limits)
        verdict = f"{regularity.verdict}/{profile.verdict}"
        cert = search_certificate(p)
        records.append(
            CensusRecord(
                uid=presentation_hash(p),
                d=len(p.relations),
                qhs=p.is_qhs,
                all_pure=all(is_pure(c, p) for c in p.alphabet.letters()),
                verdict=verdict,
                certificate=cert.kind.value,
            )
        )
    records.sort(key=lambda r: r.uid)
    return records


def census_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "d", "qhs", "all_pure", "verdict", "certificate"])
    for r in records:
        writer.writerow(
            [r.uid, r.d, str(r.qhs).lower(), str(r.all_pure).lower(),
             r.verdict, r.certificate]
        )
    return buf.getvalue()
