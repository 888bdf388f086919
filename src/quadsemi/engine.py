"""Coset engine: word classes modulo quadratic semigroup relations.

Everything happens inside one degree.  Relations are homogeneous of degree
2, so replacing an adjacent two-letter factor by the other side of a
binomial relation (a "swap") preserves length.  The class of a word is its
closure under swaps in both directions, and a class is zero exactly when
some member carries a zero monomial as an adjacent factor.  Every nonzero
class contains a unique member that is least in the right-to-left order,
its minimal monomial.

Bases come from a class quotient, never from walking words.  A swap inside
the first m letters of a degree-(m+1) word only moves its prefix within
the prefix's degree-m class, so each degree-(m+1) class is a union of
blocks (degree-m class, last letter), and only a swap at the last position
joins two blocks.  ``_quotient_step`` joins the blocks with a union-find,
which gives every class exactly: zero or not, its size, and its minimum.
The right-to-left order compares last letters first, so the minimum is the
class minimum one degree down, extended by the least last letter.  This
needs neither completion nor confluence of the directed rewriting system.

Tame and singular are properties of class members, so those questions
still walk classes.  Internally letters are bytes (letter i is the byte i)
and words are byte strings: slicing, substring tests and the reversed-word
order key ``w[::-1]`` all run at C speed.  Every class walk is one
depth-first generator, ``_walk``, which yields the root and then each
member in discovery order.  Callers that take the full closure get the
same answer in any order; only the first member an early-stopping scan
meets (``iter_class``, ``constructions.power_witness``) depends on it.
Singular words are closed under taking factors (the right-to-left order is
multiplicative on words of equal length), so one singular-set step,
``_next_degree``, extends the singular words of the degree below only by
letters that leave a singular suffix.

Resource caps never silently change an answer.  A nonzero class larger
than max_class_size, or a walk that outgrows it, raises
ResourceExhausted, and callers report that outcome as inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

from .model import (
    IdealMode,
    Presentation,
    Word,
    monomial_str,
    validate_qhs,
)

ENGINE_VERSION = "1.1.0"


@dataclass(frozen=True)
class EngineLimits:
    """Resource guards; generous defaults, overridable per call."""

    max_class_size: int = 5_000_000
    max_degree: int = 64

    def __post_init__(self):
        if self.max_class_size < 1 or self.max_degree < 1:
            raise ValueError("engine limits must be positive")


DEFAULT_LIMITS = EngineLimits()


class ResourceExhausted(RuntimeError):
    """A coset class outgrew max_class_size; the question stays open."""

    def __init__(self, message: str, word: Word | None = None):
        super().__init__(message)
        self.word = word


class Classification(Enum):
    TAME = "tame"
    SINGULAR = "singular"
    NON_MINIMAL = "non_minimal"
    ZERO = "zero"


@dataclass(frozen=True)
class CosetClass:
    """Outcome of one class walk: zero, or the members plus their minimum."""

    degree: int
    members: frozenset | None
    minimal: Word | None

    @property
    def is_zero(self) -> bool:
        return self.members is None


@dataclass(frozen=True)
class MinimalBasis:
    """All minimal monomials of one degree, rtl-ascending.

    ``singular`` is the subset classified singular; it is only meaningful
    when the basis was computed in WITHOUT_TOP mode and is empty otherwise.
    ``_classes`` carries the class quotient the next degree is built from;
    it takes no part in comparison.
    """

    degree: int
    minimals: tuple
    singular: tuple
    _classes: _Classes | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class _Classes:
    """The nonzero classes of one degree, as blocks of the degree below.

    Class ids follow the right-to-left order of the class minima, so id c
    is the class of the basis word minimals[c].  ``blocks`` maps each
    nonzero block, keyed d*n + a for the words u + (a+1) with u in class d
    one degree down, to the id of its class; a missing block is zero.
    ``sizes[c]`` is the exact number of words in class c.
    """

    presentation: Presentation
    mode: IdealMode
    degree: int
    blocks: dict
    sizes: tuple


@dataclass(frozen=True)
class RegularityResult:
    """First singular-free degree, or how far the search got.

    status is 'regular' (degree = first degree with no singular words,
    nilpotency_bound = degree + 1), 'irregular_up_to' (singular words
    survived through the degree cap) or 'inconclusive' (a resource cap cut
    the walk; degree is the last fully decided one).
    """

    status: str
    degree: int
    nilpotency_bound: int | None = None
    detail: str = ""

    @property
    def is_regular(self) -> bool:
        return self.status == "regular"


class _Rules:
    """Presentation compiled to byte tables for one ideal mode.

    ``swap`` and ``zeros`` serve class walks.  ``joins`` and ``zero_after``
    serve the class quotient with letters counted from 0: joins[a] lists
    (b, ((r0, r1), ...)) for each letter b such that a b swaps to r0 r1,
    and zero_after[a] the letters b with a b a zero monomial.
    """

    __slots__ = ("n", "maxbyte", "swap", "zeros", "joins", "zero_after")

    def __init__(self, n, maxbyte, swap, zeros):
        self.n = n
        self.maxbyte = maxbyte
        self.swap = swap
        self.zeros = zeros
        letters = range(n)
        self.joins = tuple(
            tuple((b, tuple((r[0] - 1, r[1] - 1) for r in swap[bytes((a + 1, b + 1))]))
                  for b in letters if bytes((a + 1, b + 1)) in swap)
            for a in letters
        )
        self.zero_after = tuple(
            tuple(b for b in letters if bytes((a + 1, b + 1)) in zeros)
            for a in letters
        )


@lru_cache(maxsize=256)
def _rules(p: Presentation, mode: IdealMode) -> _Rules:
    n = p.alphabet.n
    if n > 255:
        raise ValueError("the coset engine supports at most 255 generators")
    zero_pairs = [r.left for r in p.relations if r.is_zero]
    if mode is IdealMode.WITHOUT_TOP:
        top = (n, 1)
        if top not in zero_pairs:
            raise ValueError(
                f"WITHOUT_TOP drops the zero monomial x{n}*x1 but the presentation lacks it"
            )
        zero_pairs.remove(top)
    swap: dict = {}
    for rel in p.relations:
        if rel.is_zero:
            continue
        left = bytes(rel.left)
        right = bytes(rel.right)
        swap.setdefault(left, []).append(right)
        swap.setdefault(right, []).append(left)
    swap = {k: tuple(v) for k, v in swap.items()}
    zeros = tuple(sorted(bytes(q) for q in zero_pairs))
    return _Rules(n, n, swap, zeros)


def _encode_word(word, p: Presentation) -> bytes:
    if len(word) == 0:
        raise ValueError("the empty word has no coset class")
    n = p.alphabet.n
    for x in word:
        if not isinstance(x, int) or not 1 <= x <= n:
            raise ValueError(f"letter {x!r} outside alphabet 1..{n}")
    return bytes(word)


def _rev(b: bytes) -> bytes:
    return b[::-1]


def _exhausted(w: bytes, cap: int) -> ResourceExhausted:
    return ResourceExhausted(
        f"coset class of {monomial_str(tuple(w))} exceeded {cap} members",
        word=tuple(w),
    )


def _walk(w: bytes, rules: _Rules, cap: int, seen: set):
    """Yield w, then each new member of its swap closure in discovery order.

    A member is yielded before it joins ``seen``, so a consumer that stops
    at one decides whether to record it.  ResourceExhausted is raised only
    when a member would take ``seen`` past ``cap``.  A walk run to the end
    leaves the whole class in ``seen``.
    """
    swap = rules.swap
    yield w
    seen.add(w)
    stack = [w]
    while stack:
        v = stack.pop()
        for i in range(len(v) - 1):
            reps = swap.get(v[i:i + 2])
            if reps is None:
                continue
            head = v[:i]
            tail = v[i + 2:]
            for r in reps:
                nb = head + r + tail
                if nb in seen:
                    continue
                yield nb
                if len(seen) >= cap:
                    raise _exhausted(w, cap)
                seen.add(nb)
                stack.append(nb)


def _top_suffix_witness(v: bytes, w: bytes, m: int, maxbyte: int) -> bool:
    """True when v carries the top letter at a position after which v and w agree."""
    if maxbyte not in v:
        return False
    s = 0
    while s < m and v[m - 1 - s] == w[m - 1 - s]:
        s += 1
    start = m - s - 1
    if start < 0:
        start = 0
    return maxbyte in v[start:]


_ZERO_MARK = b""

# Per-degree budget of words whose class verdicts are memoized beyond the
# candidates themselves.  Within the budget whole classes are cached and
# sibling candidates settle by lookup; past it only candidate words are
# cached and the rest settle through the in-walk order comparison, which
# is slower but needs no extra memory.
_MEMO_WORD_BUDGET = 2_000_000


def _cache_class(known: dict, seen: set, mark: bytes, cand_set: frozenset,
                 memo_room: int) -> int:
    """Record one walked class's verdict; returns the remaining budget."""
    if len(seen) <= memo_room:
        for v in seen:
            known[v] = mark
        return memo_room - len(seen)
    for v in seen:
        if v in cand_set:
            known[v] = mark
    return memo_room


def _probe(w: bytes, rules: _Rules, cap: int, known: dict):
    """Classify w by walking its class with early exits.

    Returns (status, seen) with status one of:

      'zero'          the class is zero; seen words all belong to it
      'nonminimal'    some member precedes w (the class may also be zero,
                      which callers treat the same way: w is not kept)
      'tame'          a tame witness appeared before either of the above
      'singular'      the class was exhausted, w is its minimum, no member
                      is a tame witness, and seen is the complete class

    ``known`` carries verdicts from earlier walks of the same degree: the
    empty-bytes mark for members of zero classes, or the class minimum for
    fully enumerated classes.  Touching a known word settles w at once.
    """
    zeros = rules.zeros
    maxbyte = rules.maxbyte
    wrev = w[::-1]
    m = len(w)
    seen: set = set()
    for v in _walk(w, rules, cap, seen):
        kn = known.get(v)
        if kn is not None:
            if kn:
                return "nonminimal", None
            seen.add(v)
            return "zero", seen
        for z in zeros:
            if z in v:
                seen.add(v)
                return "zero", seen
        if v[::-1] < wrev:
            return "nonminimal", None
        if _top_suffix_witness(v, w, m, maxbyte):
            return "tame", None
    return "singular", seen


def coset_class(word, p: Presentation, mode: IdealMode = IdealMode.FULL,
                limits: EngineLimits = DEFAULT_LIMITS) -> CosetClass:
    """Full swap closure of a word, with the zero verdict folded in."""
    w = _encode_word(word, p)
    rules = _rules(p, mode)
    zeros = rules.zeros
    seen: set = set()
    for v in _walk(w, rules, limits.max_class_size, seen):
        for z in zeros:
            if z in v:
                return CosetClass(len(w), None, None)
    members = frozenset(map(tuple, seen))
    minimal = tuple(min(seen, key=_rev))
    return CosetClass(len(w), members, minimal)


def minimal_monomial(word, p: Presentation, mode: IdealMode = IdealMode.FULL,
                     limits: EngineLimits = DEFAULT_LIMITS) -> Word | None:
    """Least member of the word's class, or None when the class is zero."""
    cls = coset_class(word, p, mode, limits)
    return cls.minimal


def iter_class(word, p: Presentation, mode: IdealMode = IdealMode.FULL,
               limits: EngineLimits = DEFAULT_LIMITS):
    """Stream the swap closure of a word in discovery order, root first.

    The walk is depth-first and each member is yielded as soon as a swap
    first produces it.  Members come without the zero verdict or the
    minimum, so an existence scan (does any member look like this?) can
    stop early instead of materializing a class that may be millions of
    words.  Raises ResourceExhausted past the class-size cap.
    """
    w = _encode_word(word, p)
    for v in _walk(w, _rules(p, mode), limits.max_class_size, set()):
        yield tuple(v)


def classify(word, p: Presentation, mode: IdealMode = IdealMode.WITHOUT_TOP,
             limits: EngineLimits = DEFAULT_LIMITS) -> Classification:
    """Exact classification of a word against the reduced ideal.

    Zero beats everything, then non-minimality; a minimal word is tame when
    some class member shows the top letter at a position after which it
    agrees with the word, else singular.  Only WITHOUT_TOP mode is allowed:
    the tame/singular split is defined against the reduced ideal.
    """
    if mode is not IdealMode.WITHOUT_TOP:
        raise ValueError("classification is defined against the reduced ideal (WITHOUT_TOP)")
    cls = coset_class(word, p, mode, limits)
    w = tuple(word)
    if cls.is_zero:
        return Classification.ZERO
    if cls.minimal != w:
        return Classification.NON_MINIMAL
    rules = _rules(p, mode)
    wb = bytes(w)
    m = len(wb)
    for member in cls.members:
        if _top_suffix_witness(bytes(member), wb, m, rules.maxbyte):
            return Classification.TAME
    return Classification.SINGULAR


def initial_basis(p: Presentation, mode: IdealMode = IdealMode.FULL) -> MinimalBasis:
    """Degree-1 basis: every letter; a letter is tame exactly when it is x_n."""
    rules = _rules(p, mode)
    n = rules.n
    minimals = tuple((x,) for x in range(1, n + 1))
    singular = tuple((x,) for x in range(1, n)) if mode is IdealMode.WITHOUT_TOP else ()
    classes = _Classes(p, mode, 1, {a: a for a in range(n)}, (1,) * n)
    return MinimalBasis(1, minimals, singular, classes)


def _quotient_step(minimals: tuple, classes: _Classes, rules: _Rules,
                   cap: int):
    """Minimal words and classes one degree above ``classes``.

    Block c*n + b holds the words u + (b+1) with u in class c.  It is zero
    when a last letter of class c makes a zero monomial with b+1, and it
    joins block t*n + r1 for every block d*n + a of class c and every swap
    (a, b) -> (r0, r1), where t is the class of block d*n + r0; a missing
    t makes it zero.  Zero spreads over its component.  Returns the new
    rtl-ascending minimal words and their classes; ResourceExhausted when
    a nonzero class has more than ``cap`` words.
    """
    n = rules.n
    joins = rules.joins
    zero_after = rules.zero_after
    blocks = classes.blocks
    parent = list(range(len(minimals) * n))
    zero = []

    def find(u):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    for block, c in blocks.items():
        a = block % n
        below = block - a
        base = c * n
        for b in zero_after[a]:
            zero.append(base + b)
        for b, reps in joins[a]:
            u = base + b
            for r0, r1 in reps:
                t = blocks.get(below + r0)
                if t is None:
                    zero.append(u)
                    continue
                ru = find(u)
                rv = find(t * n + r1)
                if ru != rv:
                    parent[rv] = ru
    dead = {find(u) for u in zero}
    # scanning blocks by last letter, then by class, meets each class first
    # at its minimum and the classes in rtl order of their minima
    ids: dict = {}
    new_min = []
    new_size = []
    new_blocks = {}
    sizes = classes.sizes
    for b in range(n):
        letter = (b + 1,)
        for c in range(len(minimals)):
            u = c * n + b
            r = find(u)
            if r in dead:
                continue
            k = ids.get(r)
            if k is None:
                k = ids[r] = len(new_min)
                new_min.append(minimals[c] + letter)
                new_size.append(sizes[c])
            else:
                new_size[k] += sizes[c]
            new_blocks[u] = k
    for k, size in enumerate(new_size):
        if size > cap:
            raise _exhausted(bytes(new_min[k]), cap)
    return tuple(new_min), _Classes(classes.presentation, classes.mode,
                                    classes.degree + 1, new_blocks, tuple(new_size))


def _next_degree(prev, rules: _Rules, cap: int):
    """Singular words one degree above the singular words ``prev``.

    Candidates are the extensions u + x of words in ``prev`` whose suffix
    u[1:] + x is in ``prev`` too; every factor of a singular word is
    singular, so no other word can survive.  Candidates are walked in
    ascending order, and once a class has been enumerated every other
    candidate inside it is settled by table lookup.  Returns the singular
    words as rtl-ascending byte words.
    """
    letters = [bytes([x]) for x in range(1, rules.n + 1)]
    prev_set = set(prev)
    cands = [u + x for u in prev for x in letters if u[1:] + x in prev_set]
    cands.sort(key=_rev)
    cand_set = frozenset(cands)
    known: dict = {}
    memo_room = _MEMO_WORD_BUDGET
    sing = []
    for c in cands:
        if c in known:
            continue
        status, seen = _probe(c, rules, cap, known)
        if status == "zero":
            memo_room = _cache_class(known, seen, _ZERO_MARK, cand_set, memo_room)
        elif status == "singular":
            sing.append(c)
            memo_room = _cache_class(known, seen, c, cand_set, memo_room)
    return sing


def next_minimal_basis(basis: MinimalBasis, p: Presentation,
                       mode: IdealMode = IdealMode.FULL,
                       limits: EngineLimits = DEFAULT_LIMITS) -> MinimalBasis:
    """Minimal monomials one degree up from a complete minimal basis.

    The class quotient carried by ``basis`` gives the next degree's
    classes without walking them; a basis that carries none, or one built
    for another presentation or mode, has its quotient rebuilt from degree
    1.  In WITHOUT_TOP mode each new minimal word's class is then walked
    until a tame witness shows, to fill in ``singular``.
    """
    rules = _rules(p, mode)
    cap = limits.max_class_size
    minimals, classes = basis.minimals, basis._classes
    if (classes is None or classes.degree != basis.degree
            or classes.mode is not mode or classes.presentation != p):
        start = initial_basis(p, mode)
        minimals, classes = start.minimals, start._classes
        while classes.degree < basis.degree:
            minimals, classes = _quotient_step(minimals, classes, rules, cap)
    minimals, classes = _quotient_step(minimals, classes, rules, cap)
    singular = ()
    if mode is IdealMode.WITHOUT_TOP:
        singular = tuple(w for w in minimals
                         if _probe(bytes(w), rules, cap, {})[0] == "singular")
    return MinimalBasis(basis.degree + 1, minimals, singular, classes)


def iter_singular_sets(p: Presentation, limits: EngineLimits = DEFAULT_LIMITS):
    """Yield (degree, singular words) degree by degree against the reduced ideal.

    Factors of singular words are singular, so degree k+1 candidates are
    the extensions u + x of degree-k singular words whose length-k suffix
    is singular too, and the iteration may stop at the first empty degree:
    every later degree is empty as well.  Runs until the set empties or
    limits.max_degree is reached.  Requires a valid QHS.
    """
    report = validate_qhs(p)
    if not report.valid:
        raise ValueError("singular sets are defined for valid QHS presentations only")
    rules = _rules(p, IdealMode.WITHOUT_TOP)
    cap = limits.max_class_size
    sing = [bytes([x]) for x in range(1, rules.n)]
    yield 1, tuple(map(tuple, sing))
    degree = 1
    while sing and degree < limits.max_degree:
        degree += 1
        sing = _next_degree(sing, rules, cap)
        yield degree, tuple(map(tuple, sing))


def singular_monomials(p: Presentation, m: int,
                       limits: EngineLimits = DEFAULT_LIMITS) -> tuple:
    """Singular words of degree m, rtl-ascending."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    lim = limits if limits.max_degree >= m else replace(limits, max_degree=m)
    for degree, words in iter_singular_sets(p, lim):
        if degree == m:
            return words
        if not words:
            break
    return ()


def regularity_degree(p: Presentation,
                      limits: EngineLimits = DEFAULT_LIMITS) -> RegularityResult:
    """Search for the first degree with no singular words.

    Finding one at degree m settles everything: the algebra of the full
    presentation is nilpotent of index at most m + 1.
    """
    last = 0
    try:
        for degree, words in iter_singular_sets(p, limits):
            last = degree
            if not words:
                return RegularityResult("regular", degree, degree + 1)
        return RegularityResult("irregular_up_to", limits.max_degree)
    except ResourceExhausted as exc:
        return RegularityResult("inconclusive", last, None, str(exc))
