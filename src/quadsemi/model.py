"""Core model: alphabets, words, quadratic relations and presentations.

Generators are the integers ``1..n`` with their natural order; generator
``i`` renders as ``x<i>``.  A degree-2 monomial ``x_a x_b`` is stored as the
pair ``(a, b)``, ``a`` being the left factor.  Words of one fixed degree are
compared in the right-to-left lexicographic order throughout: positions are
scanned from the last letter backwards, so later letters dominate.

A presentation is a duplicate-free collection of quadratic semigroup
relations, each either a zero monomial (``x_a x_b = 0``) or an equality of
two distinct monomials (``x_a x_b = x_c x_d``).  Relations are canonicalised
on construction: the two sides of an equality are oriented so that the left
side is the larger monomial in the pair order, and the relation list is
sorted, so presentations with the same content compare and hash equal.
Each relation computes its sort key and its largest letter once, when it
is built; every presentation is still sorted and checked for duplicates and
for letters beyond its alphabet, but on those stored values, so building
many presentations from shared relation objects costs a sort and a few
attribute reads each.

No coefficient field ever appears.  Every question answered here (spans,
dimensions, nilpotency) only depends on which monomial classes are nonzero,
which is a purely combinatorial matter.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice, starmap
from operator import attrgetter, eq, ge

Pair = tuple[int, int]
Word = tuple[int, ...]


def pair_key(p: Pair) -> tuple[int, int]:
    """Right-to-left order key for a degree-2 monomial."""
    return (p[1], p[0])


def rtl_key(word: Word) -> tuple[int, ...]:
    """Sort key realising the right-to-left lexicographic order."""
    return tuple(reversed(word))


def rtl_lex_cmp(u: Word, v: Word) -> int:
    """Compare two words of equal degree right-to-left; returns -1, 0 or 1.

    ``u`` precedes ``v`` when, at the last position where they differ,
    ``u`` carries the smaller letter.  Words of different degrees are not
    comparable and raise ``ValueError``.
    """
    if len(u) != len(v):
        raise ValueError(
            f"words of degree {len(u)} and {len(v)} are not comparable"
        )
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return -1 if a < b else 1
    return 0


def pair_str(p: Pair) -> str:
    return f"x{p[0]}*x{p[1]}"


def monomial_str(word: Word) -> str:
    return "*".join(f"x{c}" for c in word)


class IdealMode(Enum):
    """Which ideal a computation runs against.

    FULL uses every relation.  WITHOUT_TOP drops the one mandatory zero
    monomial ``x_n x_1`` and keeps everything else; minimality and the
    tame/singular split are defined against this reduced ideal.
    """

    FULL = "full"
    WITHOUT_TOP = "without_top"


def _check_pair(p, label: str) -> None:
    if (
        not isinstance(p, tuple)
        or len(p) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) and c >= 1 for c in p)
    ):
        raise ValueError(f"{label} must be a pair of positive generator indices, got {reprlib.repr(p)}")


@dataclass(frozen=True)
class Relation:
    """One quadratic relation: ``left = 0`` or ``left = right``.

    Binomial relations are stored with the larger side (in the pair order)
    on the left, so rewriting left to right always decreases a word.  The
    sort key and the largest letter are computed once, after orientation,
    and kept as ``_key`` and ``_top`` outside the dataclass fields, so they
    take no part in ``==``, ``hash`` or ``repr``.  Equal keys mean equal
    relations.
    """

    left: Pair
    right: Pair | None = None

    def __post_init__(self):
        _check_pair(self.left, "left monomial")
        if self.right is not None:
            _check_pair(self.right, "right monomial")
            if self.right == self.left:
                raise ValueError(f"binomial relation needs two distinct monomials, got {pair_str(self.left)} twice")
            if pair_key(self.left) < pair_key(self.right):
                left, right = self.right, self.left
                object.__setattr__(self, "left", left)
                object.__setattr__(self, "right", right)
        object.__setattr__(self, "_key", self.sort_key())
        object.__setattr__(self, "_top", self.max_letter())

    @classmethod
    def zero(cls, a: int, b: int) -> "Relation":
        return cls((a, b))

    @classmethod
    def equal(cls, ab: Pair, cd: Pair) -> "Relation":
        return cls(tuple(ab), tuple(cd))

    @property
    def is_zero(self) -> bool:
        return self.right is None

    @property
    def support(self) -> frozenset:
        if self.right is None:
            return frozenset((self.left,))
        return frozenset((self.left, self.right))

    def max_letter(self) -> int:
        letters = [*self.left, *(self.right or ())]
        return max(letters)

    def _fits_qhs(self) -> bool:
        """True when a QHS may hold this relation.

        A zero monomial must be non-ascending; an equality must have the
        shape a >= b > c >= d or a > b = c > d.  ``validate_qhs`` and the
        census enumeration both decide admissibility here alone.
        """
        a, b = self.left
        if self.right is None:
            return a >= b
        c, d = self.right
        return (a >= b > c >= d) or (a > b == c > d)

    def sort_key(self):
        if self.right is None:
            return (pair_key(self.left), 0, ())
        return (pair_key(self.left), 1, pair_key(self.right))

    def __str__(self) -> str:
        rhs = "0" if self.right is None else pair_str(self.right)
        return f"{pair_str(self.left)} = {rhs}"


@dataclass(frozen=True)
class Alphabet:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"alphabet needs at least one generator, got n={reprlib.repr(self.n)}")

    def letters(self) -> range:
        return range(1, self.n + 1)


_stored_key = attrgetter("_key")
_stored_top = attrgetter("_top")
_LISTED_GAPS = 10  # coverage gaps a QHS report lists one by one


@dataclass(frozen=True)
class Presentation:
    """An alphabet together with a canonically sorted relation tuple.

    Every presentation is checked on construction: duplicate relations and
    letters beyond x_n are rejected.  Sorting, the duplicate check (equal
    adjacent keys) and the alphabet check read the key and top letter each
    relation stored when it was built.  The hash is the dataclass hash of
    (alphabet, relations), computed once per object.
    """

    alphabet: Alphabet
    relations: tuple

    def __post_init__(self):
        rels = tuple(sorted(self.relations, key=_stored_key))
        keys = list(map(_stored_key, rels))
        if any(map(eq, keys, keys[1:])):
            dup = next(b for a, b in zip(rels, rels[1:]) if a == b)
            raise ValueError(f"duplicate relation {dup}")
        n = self.alphabet.n
        if max(map(_stored_top, rels), default=0) > n:
            bad = next(rel for rel in rels if rel._top > n)
            raise ValueError(f"relation {bad} uses a generator beyond x{n}")
        object.__setattr__(self, "relations", rels)

    @property
    def n(self) -> int:
        return self.alphabet.n

    @cached_property
    def support_union(self) -> frozenset:
        return frozenset(q for rel in self.relations for q in rel.support)

    @cached_property
    def is_qhs(self) -> bool:
        """``validate_qhs(self).valid``, stopping at the first violation."""
        return next(_violations(self), None) is None

    @cached_property
    def _hash(self) -> int:
        return hash((self.alphabet, self.relations))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _content_id(self) -> str:
        """``presentation_hash(self)``, computed once per object."""
        return hashlib.sha256(canonical_json(self).encode("ascii")).hexdigest()[:16]

    def __str__(self) -> str:
        body = ", ".join(str(r) for r in self.relations) or "no relations"
        return f"<n={self.n} | {body}>"


def presentation(n: int, relations) -> Presentation:
    return Presentation(Alphabet(n), tuple(relations))


class ViolationKind(Enum):
    DISJOINTNESS_VIOLATED = "disjointness_violated"
    COVERAGE_GAP = "coverage_gap"
    BAD_RELATION_SHAPE = "bad_relation_shape"
    MISSING_TOP_MONOMIAL = "missing_top_monomial"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str
    pair: Pair | None = None


@dataclass(frozen=True)
class QhsReport:
    valid: bool
    violations: tuple


def lower_pairs(n: int) -> set:
    """All pairs (a, b) with a >= b; the supports of a QHS partition these."""
    return {(a, b) for a in range(1, n + 1) for b in range(1, a + 1)}


def validate_qhs(p: Presentation) -> QhsReport:
    """Check the partition axioms defining a QHS.

    Valid means: supports are pairwise disjoint, together they cover every
    pair x_a x_b with a >= b exactly, zero monomials are non-ascending, and
    every binomial matches one of the two admissible shapes
    (a >= b > c >= d, or a > b = c > d).  The mandatory top monomial
    x_n x_1 = 0 is a consequence of the axioms; its absence is reported
    under its own violation kind as well.
    """
    violations = tuple(_violations(p))
    return QhsReport(not violations, violations)


def _violations(p: Presentation):
    """Yield the violations of the QHS axioms one at a time, in report order.

    Overlaps come first, then coverage gaps in pair order, then bad shapes,
    then the missing top monomial.  Only the first ``_LISTED_GAPS`` gaps
    are listed, and one more gap with no pair counts the rest, so a report
    costs O(relations) however large n is.
    """
    n = p.alphabet.n
    seen: set = set()
    flagged: set = set()
    for rel in p.relations:
        for q in rel.support:
            if q in seen and q not in flagged:
                yield Violation(ViolationKind.DISJOINTNESS_VIOLATED,
                                f"monomial {pair_str(q)} occurs in more than one support", q)
                flagged.add(q)
            seen.add(q)

    missing = n * (n + 1) // 2 - sum(starmap(ge, seen))
    gaps = ((a, b) for b in range(1, n + 1) for a in range(b, n + 1) if (a, b) not in seen)
    for q in islice(gaps, min(missing, _LISTED_GAPS)):
        yield Violation(ViolationKind.COVERAGE_GAP, f"no support covers {pair_str(q)}", q)
    if missing > _LISTED_GAPS:
        yield Violation(ViolationKind.COVERAGE_GAP,
                        f"no support covers {missing - _LISTED_GAPS} more lower pairs")

    for rel in p.relations:
        if rel._fits_qhs():
            continue
        if rel.is_zero:
            detail = f"zero monomial {pair_str(rel.left)} has ascending letters"
        else:
            detail = f"relation {rel} matches neither admissible shape"
        yield Violation(ViolationKind.BAD_RELATION_SHAPE, detail, rel.left)

    top = Relation.zero(n, 1)
    if top not in p.relations:
        yield Violation(ViolationKind.MISSING_TOP_MONOMIAL,
                        f"mandatory zero monomial {pair_str(top.left)} is absent", top.left)


def strip_top(p: Presentation) -> Presentation:
    """Remove the mandatory zero monomial x_n x_1, leaving the reduced set."""
    top = Relation.zero(p.alphabet.n, 1)
    if top not in p.relations:
        raise ValueError(f"presentation has no zero relation {pair_str(top.left)} to remove")
    return Presentation(p.alphabet, tuple(r for r in p.relations if r != top))


def opposite(p: Presentation) -> Presentation:
    """The presentation of the opposite algebra, with x_i renamed x_{n+1-i}.

    Words are read backwards and x_i becomes x_{n+1-i}, so each monomial
    x_a x_b becomes x_{n+1-b} x_{n+1-a}.  This maps the classes of one
    degree onto those of the other, so the graded dimensions and every
    class size agree, and twice is the identity.  Whatever depends on the
    right-to-left order or on the top letter (minimal words, singular sets,
    regularity, the degree at which the class quotient repeats) does not
    carry over.
    """
    n = p.alphabet.n

    def flip(q):
        return None if q is None else (n + 1 - q[1], n + 1 - q[0])

    return Presentation(p.alphabet, tuple(Relation(flip(r.left), flip(r.right))
                                          for r in p.relations))


def delta(n: int) -> int:
    """Minimal size of a QHS on n ordered generators.

    The first integer greater than (n^2 + n) / 4: every presentation with
    at most (n^2 + n) / 4 relations is infinite dimensional, and a finite
    QHS on n generators exists with exactly this many.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"generator count must be a positive integer, got {n!r}")
    return (n * n + n) // 4 + 1


def qhs_cardinality_bounds(n: int) -> tuple[int, int]:
    """Inclusive (min, max) relation counts any QHS on n generators can have."""
    return (delta(n), n * (n + 1) // 2)


def is_pure(c: int, p: Presentation) -> bool:
    """True when generator c never ends a binomial of shape a > b = c > d.

    Purity is only defined for valid QHS presentations; anything else is a
    usage error.
    """
    if not 1 <= c <= p.alphabet.n:
        raise ValueError(f"generator {c} outside alphabet 1..{p.alphabet.n}")
    if not p.is_qhs:
        raise ValueError("purity is defined for valid QHS presentations only")
    for rel in p.relations:
        if rel.right is not None and rel.left[1] == rel.right[0] and rel.right[1] == c:
            return False
    return True


def to_json_dict(p: Presentation) -> dict:
    rels = []
    for rel in p.relations:
        if rel.is_zero:
            rels.append({"zero": list(rel.left)})
        else:
            rels.append({"equal": [list(rel.left), list(rel.right)]})
    return {"n": p.n, "relations": rels}


def from_json_dict(data: dict) -> Presentation:
    if not isinstance(data, dict):
        raise ValueError("presentation JSON must be an object")
    try:
        n = data["n"]
    except KeyError:
        raise ValueError("presentation JSON lacks the generator count 'n'") from None
    entries = data.get("relations", [])
    if not isinstance(entries, list):
        raise ValueError("'relations' must be a list")
    rels = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ValueError(f"relations entry {idx}: expected one 'zero' or 'equal' key")
        if "zero" in entry:
            q = entry["zero"]
            if not (isinstance(q, list) and len(q) == 2):
                raise ValueError(f"relations entry {idx}: 'zero' needs a pair")
            rels.append(Relation.zero(q[0], q[1]))
        elif "equal" in entry:
            q = entry["equal"]
            if not (isinstance(q, list) and len(q) == 2
                    and all(isinstance(side, list) and len(side) == 2 for side in q)):
                raise ValueError(f"relations entry {idx}: 'equal' needs two pairs")
            rels.append(Relation.equal(tuple(q[0]), tuple(q[1])))
        else:
            raise ValueError(f"relations entry {idx}: unknown relation kind")
    return presentation(n, rels)


def canonical_json(p: Presentation) -> str:
    return json.dumps(to_json_dict(p), sort_keys=True, separators=(",", ":"))


def presentation_hash(p: Presentation) -> str:
    """Stable 16-hex content id over the canonical serialisation.

    The id is kept on the presentation, so a shared one (as
    ``parse_presentation`` returns for a repeated text) is hashed once.
    """
    return p._content_id
