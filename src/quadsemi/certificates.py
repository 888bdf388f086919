"""Fast certificates that a presentation cannot present a nilpotent algebra.

Two patterns are checked.  A stable pair (a, b) has both products ab and ba
outside every relation's support; no rewrite ever touches a power of ab, so
those powers are pairwise distinct nonzero classes and the algebra is
infinite dimensional.  The zero-sum pattern applies when every relation is
a binomial: sending each generator to 1 maps every relation to 0 = 0, so
the algebra surjects onto a polynomial ring in one variable and again has
nonzero words in every degree.

Both checks are linear scans over the relation list.  Presentations with
at most (n^2 + n) / 4 relations always admit at least one of the two
certificates; the searcher records the comparison in its transcript, and
the census module sweeps the guarantee exhaustively at tiny n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .engine import DEFAULT_LIMITS, EngineLimits, coset_class
from .model import IdealMode, Presentation, delta


class CertificateKind(Enum):
    SE_PAIR = "se_pair"
    ZERO_SUM = "zero_sum"
    NONE = "none"


@dataclass(frozen=True)
class Certificate:
    """Certificate found for a presentation, plus the search transcript."""

    kind: CertificateKind
    pair: tuple | None = None
    reason: str | None = None
    transcript: tuple = field(default=(), compare=False)

    @property
    def found(self) -> bool:
        return self.kind is not CertificateKind.NONE


def find_se_pair(p: Presentation) -> tuple | None:
    """First pair (a, b), a <= b, with ab and ba untouched by every relation.

    Pairs are scanned in lexicographic order and a = b is allowed.  Returns
    None when every pair meets some relation's support in at least one of
    its two orientations.
    """
    support = p.support_union
    n = p.alphabet.n
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if (a, b) not in support and (b, a) not in support:
                return (a, b)
    return None


def check_zero_sum(p: Presentation) -> bool:
    """True when every relation is a binomial (no zero relations at all)."""
    return all(r.right is not None for r in p.relations)


def search_certificate(p: Presentation) -> Certificate:
    """Try the stable-pair scan, then the zero-sum check.

    With d relations on n generators, d < delta(n), that is
    d <= (n^2 + n) / 4, guarantees one of the two certificates exists;
    above that bound the search still runs but may come back empty.  The
    transcript records the comparison and each check's outcome in order.
    """
    n = p.alphabet.n
    d = len(p.relations)
    guaranteed = d < delta(n)
    lines = [
        "relations: {}, guarantee threshold (n^2+n)/4 = {}: {}".format(
            d, (n * n + n) / 4, "within" if guaranteed else "above"
        )
    ]
    pair = find_se_pair(p)
    if pair is not None:
        a, b = pair
        lines.append(f"stable pair found: ({a}, {b})")
        return Certificate(CertificateKind.SE_PAIR, pair, None, tuple(lines))
    lines.append("no stable pair: every unordered pair meets a relation support")
    if check_zero_sum(p):
        lines.append("all relations are binomials: zero-sum certificate applies")
        return Certificate(CertificateKind.ZERO_SUM, None, None, tuple(lines))
    lines.append("zero relations present: zero-sum certificate does not apply")
    reason = (
        "no certificate found within the guarantee threshold"
        if guaranteed
        else "bound exceeded, no certificate found"
    )
    return Certificate(CertificateKind.NONE, None, reason, tuple(lines))


def certificate_is_valid(cert: Certificate, p: Presentation) -> bool:
    """Re-check a certificate against a presentation from first principles."""
    if cert.kind is CertificateKind.SE_PAIR:
        if cert.pair is None:
            return False
        a, b = cert.pair
        n = p.alphabet.n
        if not (1 <= a <= n and 1 <= b <= n):
            return False
        support = p.support_union
        return (a, b) not in support and (b, a) not in support
    if cert.kind is CertificateKind.ZERO_SUM:
        return check_zero_sum(p)
    return False


def verify_witness(pair: tuple, k: int, p: Presentation,
                   limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Check that (ab)^k is nonzero modulo the full ideal.

    For a genuine stable pair the class of (ab)^k is a singleton, so the
    walk is immediate at any power; the check stays honest for arbitrary
    pairs by walking the class for real.
    """
    if k < 1:
        raise ValueError("the power must be at least 1")
    a, b = pair
    word = (a, b) * k
    cls = coset_class(word, p, IdealMode.FULL, limits)
    return not cls.is_zero


def certificate_to_json(cert: Certificate) -> dict:
    """Wire form: {"type": "se_pair", "a": ., "b": .} or {"type": "zero_sum"}."""
    if cert.kind is CertificateKind.SE_PAIR:
        a, b = cert.pair
        return {"type": "se_pair", "a": a, "b": b}
    if cert.kind is CertificateKind.ZERO_SUM:
        return {"type": "zero_sum"}
    return {"type": "none", "reason": cert.reason}
