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
The quotient lives in flat lists indexed by slot d*(n+1) + a, for class d
one degree down and last letter a in the letters 1..n that the class
walks use: a ``MinimalBasis`` carries its degree's blocks list, holding
each slot's class id or -1 for a zero block, and the step keeps its
union-find parents and class ids in lists of the same slots.

Tame and singular are properties of class members, so those questions
still walk classes.  Internally a word is a packed int: with
K = n.bit_length() bits per letter, letter j of the word (counting from
0 at the left) sits in bits K*j .. K*j+K-1.  Letters are never 0, so the
top digit gives the degree, and for words of one degree integer order is
the right-to-left order.  A swap at position j adds delta << K*j, with
delta read from a table indexed by the pair code a | b << K; the prefix
is a mask and the last letter a shift.  Every class walk that reads
each member is one depth-first generator, ``_block_walk``; given no
classes one degree down it yields the root and then each member in
discovery order: it pops a word, scans its positions left to right and
takes each pair's replacements in relation order.  Callers that take the
full closure get the same answer in any order; only the first member an
early-stopping scan meets depends on it.  The power-witness scan behind
``constructions.power_witness``, ``_first_member_ending_in``, is the one
loop outside ``_block_walk``: it walks the same order without a
generator and tests only the swaps at the last position, since no other
swap changes the last letter.  A test pins it to the first member of
``iter_class`` that it stands for.  The public functions take and return
words as tuples of letters.

Singular sets are found degree by degree with the same blocks.  Singular
words are closed under taking factors (the right-to-left order is
multiplicative on words of equal length), so the candidates of one degree
are the singular words below extended by a letter that leaves a singular
suffix, and every candidate's prefix lies in a singular class of the
degree below, which that degree walked to the end.  The singular-set step
keeps those classes as the blocks and words its walks met, spells out the
members of the ones that hold a next-degree candidate's prefix, and the
walk, given them, meets each block (singular class below, last letter)
once, as a unit: only a swap at the last position leaves a block, and
whether a block is zero, precedes the candidate or holds a tame witness
follows from its letter and its class's minimum and last letters.  Only
a block with the candidate's last letter, from a class other than the
candidate prefix's, has its words checked one by one for a tame witness.
Words whose prefix lies in no class handed on are walked one by one.
Each candidate is settled by a walk of its own class; the step keeps no
memo of the classes its earlier walks settled.

The class quotient also settles some infinite algebras outright.  The next
degree's blocks come from the current ones and the rules alone: the minimum
words and sizes ride along but feed nothing back.  So when a degree's
blocks equal the ones they were built from (zero slots past the last
nonzero one aside) and the degree still has classes, every later degree
repeats them, and the algebra is infinite-dimensional.  ``_quotient_step``
records that fixed point, or the degree where no class is left, on the
``_Rules`` it was given, keyed by the class-size and width caps of its
chain; a call reads it under its own caps and degree cap only, so every
engine answer is a function of its arguments.  A repeating FULL quotient
settles regularity: a degree with no singular words would make the algebra
nilpotent of index at most one more than that degree, so an infinite
algebra has singular words in every degree and ``regularity_degree`` need
not walk them.

Resource caps never silently change an answer.  A nonzero class larger than
max_class_size, a walk that outgrows it, or a quotient degree with more
than max_classes classes raises ResourceExhausted, and callers report that
outcome as inconclusive.  The quotient's memory grows with the class count
of a degree times n + 1, the slots of the next step.  In the singular-set
step max_class_size counts the words a walk visits one by one, not the
blocks it meets whole, and a class found singular still raises when it has
more words than the cap.  A walk that meets the cap is repeated word by
word before the cap is reported, because blocks change the order in which a
class is met.
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
)

ENGINE_VERSION = "1.3.2"


@dataclass(frozen=True)
class EngineLimits:
    """Resource guards; generous defaults, overridable per call.

    max_class_size bounds the words of one class, max_degree the degrees
    searched, and max_classes the classes of one degree of the class
    quotient.
    """

    max_class_size: int = 5_000_000
    max_degree: int = 64
    max_classes: int = 1_000_000

    def __post_init__(self):
        if self.max_class_size < 1 or self.max_degree < 1 or self.max_classes < 1:
            raise ValueError("engine limits must be positive")


DEFAULT_LIMITS = EngineLimits()


class ResourceExhausted(RuntimeError):
    """A class outgrew max_class_size, or a quotient degree max_classes.

    The question stays open.
    """

    def __init__(self, message: str, word: Word | None = None,
                 degree: int | None = None):
        super().__init__(message)
        self.word = word
        self.degree = degree


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

    The hidden fields hold the class quotient the next degree is built
    from, and take no part in comparison.  Class ids follow the
    right-to-left order of the class minima, so id c is the class of
    minimals[c].  ``_blocks`` is a list indexed by slot d*(n+1) + a, for
    the block of words u + a with u in class d one degree down: it holds
    the id of the block's class, or -1 when the block is zero (so is slot
    d*(n+1), which no letter fills).  ``_sizes[c]`` is the exact number
    of words in class c; ``_rules`` and ``_caps`` hold the presentation,
    mode and caps (None at degree 1) that they were built under.  Which
    minimal words are singular is answered by ``iter_singular_sets``.
    """

    degree: int
    minimals: tuple
    _rules: _Rules | None = field(default=None, compare=False, repr=False)
    _blocks: list | None = field(default=None, compare=False, repr=False)
    _sizes: tuple | None = field(default=None, compare=False, repr=False)
    _caps: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RegularityResult:
    """First singular-free degree, or how far the search got.

    status is 'regular' (degree = first degree with no singular words,
    nilpotency_bound = degree + 1), 'irregular_up_to' (singular words
    survived through the degree cap) or 'inconclusive' (a resource cap cut
    the walk; degree is the last fully decided one).  An 'irregular_up_to'
    settled by a repeating full class quotient, without a walk, names the
    degree of the repeat in ``detail``; an 'inconclusive' one names the
    cap that was hit.
    """

    status: str
    degree: int
    nilpotency_bound: int | None = None
    detail: str = ""

    @property
    def is_regular(self) -> bool:
        return self.status == "regular"


class _Rules:
    """Presentation compiled to tables for one ideal mode.

    Letters are 1..n and words are packed with ``k`` = n.bit_length() bits
    per letter.  swaps[a | b << k] is the tuple of deltas
    (r0 - a) + ((r1 - b) << k), one for each two-letter word r0 r1 that a b
    swaps to, in relation order, or None when no relation moves a b; adding
    delta << k*j to a word swaps its pair at position j.  ``zero_codes``
    holds the pair codes of the zero monomials, and zero_before[b] the
    letters a with a b a zero monomial, for block walks.  The class
    quotient reads the same facts by first letter: joins[a] lists a triple
    (b, r0, r1) for each swap a b -> r0 r1, and zero_after[a] the letters
    b with a b a zero monomial.  ``fates`` maps (max_class_size,
    max_classes) to the first end met by a class quotient stepped from
    degree 1 under those caps: ("dies", m) when degree m has no class, or
    ("repeats", m) when degree m's blocks equal degree m-1's.
    """

    __slots__ = ("n", "k", "swaps", "zero_codes", "zero_before", "joins",
                 "zero_after", "fates")

    def __init__(self, n, swap, zeros):
        self.n = n
        self.k = k = n.bit_length()
        self.fates = {}
        swaps = [None] * (1 << 2 * k)
        for (a, b), reps in swap.items():
            swaps[a | b << k] = tuple(r0 - a + (r1 - b << k) for r0, r1 in reps)
        self.swaps = tuple(swaps)
        self.zero_codes = frozenset(a | b << k for a, b in zeros)
        self.zero_before = tuple(frozenset(z[0] for z in zeros if z[1] == b)
                                 for b in range(n + 1))
        self.joins = tuple(tuple((b, r0, r1) for b in range(n + 1) if (a, b) in swap
                                 for r0, r1 in swap[a, b])
                           for a in range(n + 1))
        self.zero_after = tuple(tuple(z[1] for z in zeros if z[0] == a)
                                for a in range(n + 1))


def _check_alphabet(n: int) -> None:
    if n > 255:
        raise ValueError("the coset engine supports at most 255 generators")


@lru_cache(maxsize=256)
def _rules(p: Presentation, mode: IdealMode) -> _Rules:
    n = p.alphabet.n
    _check_alphabet(n)
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
        swap.setdefault(rel.left, []).append(rel.right)
        swap.setdefault(rel.right, []).append(rel.left)
    swap = {key: tuple(v) for key, v in swap.items()}
    return _Rules(n, swap, tuple(sorted(zero_pairs)))


def _pack(word, k: int) -> int:
    """The packed int of a word of letters, k bits per letter."""
    w = 0
    for x in reversed(word):
        w = w << k | x
    return w


def _unpack(w: int, k: int) -> Word:
    """The letters of a packed word."""
    digit = (1 << k) - 1
    out = []
    while w:
        out.append(w & digit)
        w >>= k
    return tuple(out)


def _encode_word(word, rules: _Rules) -> int:
    if len(word) == 0:
        raise ValueError("the empty word has no coset class")
    n = rules.n
    for x in word:
        if not isinstance(x, int) or not 1 <= x <= n:
            raise ValueError(f"letter {x!r} outside alphabet 1..{n}")
    return _pack(word, rules.k)


def _exhausted(word: Word, cap: int) -> ResourceExhausted:
    return ResourceExhausted(
        f"coset class of {monomial_str(word)} exceeded {cap} members",
        word=word,
        degree=len(word),
    )


def _too_wide(degree: int, cap: int) -> ResourceExhausted:
    return ResourceExhausted(f"degree {degree} has more than {cap} classes", degree=degree)


def _holds_zero(w: int, rules: _Rules) -> bool:
    """True when the packed word w has a zero monomial as an adjacent factor."""
    codes = rules.zero_codes
    k = rules.k
    pair = (1 << 2 * k) - 1
    while w >> k:
        if w & pair in codes:
            return True
        w >>= k
    return False


def _top_above(w: int, k: int, top: int) -> int:
    """Position of the last top letter in the packed word w, or -1 when it has none."""
    digit = (1 << k) - 1
    last = -1
    j = 0
    while w:
        if w & digit == top:
            last = j
        w >>= k
        j += 1
    return last


def _top_suffix_witness(v: int, w: int, k: int, top: int, above: int) -> bool:
    """True when v carries the top letter at a position after which v and w agree.

    v and w are packed words of one degree and ``above`` is
    ``_top_above(w, k, top)``.  The highest digit h where v and w differ
    must be v's top letter, or w must hold the top letter above it.  When
    v equals w, h is taken as 0, and the test asks whether w holds the top
    letter at all.
    """
    h = (((v ^ w) | 1).bit_length() - 1) // k
    return (v >> k * h) & ((1 << k) - 1) == top or above > h


# Budget of words in the singular classes the singular-set steps keep and
# hand down: the classes handed down from the degree below, spelled out word
# by word, and the classes the current step keeps for the next degree,
# counted by size although only the ones handed down are spelled out.  A
# class past the budget is not kept, and its extensions are walked word by
# word one degree up.
_KEPT_WORD_BUDGET = 2_000_000


def _block_walk(c: int, rules: _Rules, cap: int, below: dict, seen: set,
                blocks: dict, zero: list | None = None):
    """Yield the class of the packed word c in discovery order, as blocks and single words.

    ``below`` maps each member of a known class one degree down to that
    class, a tuple (key, minimum, members by last letter, size) with key a
    distinct multiple of 256, so that class key + x names one block.  A
    word u + x with u in such a class is never yielded alone: its block,
    the pair (class, x) under the key class key + x, is yielded once.
    Swaps inside a block only move u within its class, so a block is left
    only by a swap at the last position.  Other words are yielded one by
    one, each before it joins ``seen`` (a block joins ``blocks`` after it
    is yielded).  ResourceExhausted is raised only when a word walked alone
    would take ``seen`` past ``cap``; block members are never counted here.

    Given a list ``zero``, the walk stops at the first word it yields that
    has a zero monomial as a factor, after appending it to ``zero``; the
    caller stops likewise at the first zero block.  Until then every word
    and block the walk moves on from is free of zero monomials (the classes
    in ``below`` are nonzero), and a swap at position j changes only the
    pairs at j - 1, j and j + 1, so only those are checked.
    """
    k = rules.k
    swaps = rules.swaps
    last = (c.bit_length() - 1) // k * k  # the shift of the last letter
    if not last:
        yield c
        seen.add(c)
        return
    mask = (1 << last) - 1  # the prefix
    top = last - k  # the shift of the last pair
    pair = (1 << 2 * k) - 1
    inner = range(0, top, k)
    # zero codes have two nonzero letters, so the empty digits that
    # (nb << k) >> s brings in at either end of the word match none
    codes = rules.zero_codes if zero is not None else None
    home = below.get(c & mask)
    if home is None:
        if codes and _holds_zero(c, rules):
            zero.append(c)
            yield c
            return
        yield c
        seen.add(c)
        stack = [c]
    else:
        x = c >> last
        root = (home, x)
        yield root
        blocks[home[0] + x] = root
        stack = [root]
    while stack:
        item = stack.pop()
        if item.__class__ is int:
            for s in inner:
                ds = swaps[(item >> s) & pair]
                if ds is None:
                    continue
                for d in ds:
                    # a swap inside the prefix keeps it in its (unknown) class
                    nb = item + (d << s)
                    if nb in seen:
                        continue
                    if codes:
                        window = (nb << k) >> s
                        if (window & pair in codes or (window >> k) & pair in codes
                                or (window >> 2 * k) & pair in codes):
                            zero.append(nb)
                            yield nb
                            return
                    yield nb
                    if len(seen) >= cap:
                        raise _exhausted(_unpack(c, k), cap)
                    seen.add(nb)
                    stack.append(nb)
            ds = swaps[item >> top]
            if ds is None:
                continue
            exits = [item + (d << top) for d in ds]
        else:
            cls, b = item
            exits = []
            for e, words in cls[2].items():
                ds = swaps[e | b << k]
                if ds is not None:
                    moves = [(b << last) + (d << top) for d in ds]
                    exits += [u + move for u in words for move in moves]
        for nb in exits:
            cls = below.get(nb & mask) if below else None
            if cls is None:
                if nb in seen:
                    continue
                if codes:
                    window = (nb << k) >> top
                    if (window & pair in codes or (window >> k) & pair in codes
                            or (window >> 2 * k) & pair in codes):
                        zero.append(nb)
                        yield nb
                        return
                yield nb
                if len(seen) >= cap:
                    raise _exhausted(_unpack(c, k), cap)
                seen.add(nb)
                stack.append(nb)
            else:
                x = nb >> last
                key = cls[0] + x
                if key in blocks:
                    continue
                block = (cls, x)
                yield block
                blocks[key] = block
                stack.append(block)


def _settle(c: int, rules: _Rules, cap: int, below: dict):
    """Walk the class of the packed word c until it shows whether c is singular.

    Returns (walked, blocks) when the walk ends, so that c is the class
    minimum and no member is a tame witness: ``walked`` lists the words
    the walk visited one by one, in discovery order, and ``blocks`` is as
    ``_block_walk`` left it.  Discovery order does not depend on the hash
    seed, so neither does the order in which ``_hand_down`` passes these
    words on.  Returns None as soon as the walk shows that c is not
    singular: the class is zero, or some member precedes c or is a tame
    witness.

    A block is settled without visiting its members: it is zero when a
    last letter of its class makes a zero monomial with its letter; its
    least word is the class minimum extended by its letter; and it holds a
    tame witness when its letter is the top letter, or when its letter is
    c's, its class is not the class of c's prefix (which is singular), and
    some member of its class is a tame witness for that prefix.
    """
    k = rules.k
    digit = (1 << k) - 1
    top = rules.n
    zero_before = rules.zero_before
    shift = (c.bit_length() - 1) // k * k
    u = c & ((1 << shift) - 1)
    last = c >> shift
    home = below.get(u)
    c_top = _top_above(c, k, top)
    u_top = c_top if last != top else _top_above(u, k, top)
    walked: list = []
    blocks: dict = {}
    zero: list = []
    for item in _block_walk(c, rules, cap, below, set(), blocks, zero):
        if item.__class__ is int:
            if zero or item < c:
                return None
            # _top_suffix_witness(item, c, k, top, c_top), inlined
            h = (((item ^ c) | 1).bit_length() - 1) // k
            if (item >> k * h) & digit == top or c_top > h:
                return None
            walked.append(item)
        else:
            cls, b = item
            if not zero_before[b].isdisjoint(cls[2]) or b < last or b == top:
                return None
            if b == last and (cls[1] < u or cls is not home and any(
                    _top_suffix_witness(d, u, k, top, u_top)
                    for words in cls[2].values() for d in words)):
                return None
    return walked, blocks


def _singular_step(cands: list, rules: _Rules, cap: int, below: dict):
    """Singular words among ``cands``, and their classes for the next degree.

    ``cands`` are packed words of one degree in ascending (rtl) order and
    ``below`` holds the known classes one degree down (see
    ``_block_walk``); with none known every class is walked word by word.
    Each candidate is settled by a walk of its own class.  A walk that
    meets the cap is repeated word by word before the cap is reported:
    blocks change the order in which a class is met, and the word walk may
    reach an exit within the cap first.  A class walked to the end with
    more than ``cap`` words raises ResourceExhausted, however few of them
    were walked one by one.

    Returns the singular words, ascending, and the list of their classes
    that were kept, each as (key, minimum, words walked one by one in
    discovery order, blocks, size) for ``_hand_down``.  The classes kept,
    counted by size, together with the words of ``below``, stay within
    ``_KEPT_WORD_BUDGET``, which bounds nothing else.
    """
    room = _KEPT_WORD_BUDGET - len(below)
    sing = []
    kept = []
    for c in cands:
        try:
            found = _settle(c, rules, cap, below)
        except ResourceExhausted:
            if not below:
                raise
            found = _settle(c, rules, cap, {})
        if found is None:
            continue
        walked, blocks = found
        size = len(walked) + sum(cls[3] for cls, _b in blocks.values())
        if size > cap:
            raise _exhausted(_unpack(c, rules.k), cap)
        if size <= room:
            room -= size
            kept.append((~len(sing) << 8, c, walked, blocks, size))
        sing.append(c)
    return sing, kept


def _hand_down(kept: list, heads: set, k: int) -> dict:
    """Map each member of the kept classes whose minimum is in ``heads`` to its class.

    ``kept`` holds (key, minimum, single words, blocks, size) as the step
    left them; a class is spelled out into its members here, once.
    """
    below = {}
    for key, c, walked, blocks, size in kept:
        if c not in heads:
            continue
        shift = (c.bit_length() - 1) // k * k
        members: dict = {}
        for cls, b in blocks.values():
            tail = b << shift
            members.setdefault(b, []).extend(
                d + tail for words in cls[2].values() for d in words)
        for v in walked:
            members.setdefault(v >> shift, []).append(v)
        cls = (key, c, members, size)
        for words in members.values():
            for v in words:
                below[v] = cls
    return below


def _closure(word, p: Presentation, mode: IdealMode, limits: EngineLimits):
    """(rules, packed word, packed members of its class), or None members when zero."""
    rules = _rules(p, mode)
    w = _encode_word(word, rules)
    seen: set = set()
    zero: list = []
    for _v in _block_walk(w, rules, limits.max_class_size, {}, seen, {}, zero):
        pass
    return rules, w, None if zero else seen


def coset_class(word, p: Presentation, mode: IdealMode = IdealMode.FULL,
                limits: EngineLimits = DEFAULT_LIMITS) -> CosetClass:
    """Full swap closure of a word, with the zero verdict folded in."""
    rules, w, seen = _closure(word, p, mode, limits)
    if seen is None:
        return CosetClass(len(word), None, None)
    k = rules.k
    return CosetClass(len(word), frozenset(_unpack(v, k) for v in seen),
                      _unpack(min(seen), k))


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
    rules = _rules(p, mode)
    k = rules.k
    w = _encode_word(word, rules)
    for v in _block_walk(w, rules, limits.max_class_size, {}, set(), {}):
        yield _unpack(v, k)


def _first_member_ending_in(word, x: int, p: Presentation,
                           mode: IdealMode = IdealMode.FULL,
                           limits: EngineLimits = DEFAULT_LIMITS) -> Word | None:
    """First member of the word's class, in ``iter_class`` order, whose last letter is x.

    None when the closure is exhausted without one; ResourceExhausted past
    the class-size cap, exactly where ``iter_class`` raises it.  The loop
    is ``_block_walk``'s word branch with no classes below, stopped at the
    first witness instead of yielding each member.  A swap inside the
    prefix never changes the last letter, so once the root is checked only
    the swaps at the last position can meet x.
    """
    rules = _rules(p, mode)
    k = rules.k
    w = _encode_word(word, rules)
    last = (len(word) - 1) * k  # the shift of the last letter
    if w >> last == x:
        return _unpack(w, k)
    if not last:
        return None
    cap = limits.max_class_size
    swaps = rules.swaps
    top = last - k  # the shift of the last pair
    pair = (1 << 2 * k) - 1
    inner = range(0, top, k)
    seen = {w}
    stack = [w]
    add, push, pop = seen.add, stack.append, stack.pop
    room = cap - 1  # words that may still join seen
    while stack:
        item = pop()
        for s in inner:
            ds = swaps[(item >> s) & pair]
            if ds is None:
                continue
            for d in ds:
                nb = item + (d << s)
                if nb in seen:
                    continue
                if not room:
                    raise _exhausted(_unpack(w, k), cap)
                room -= 1
                add(nb)
                push(nb)
        ds = swaps[item >> top]
        if ds is None:
            continue
        for d in ds:
            nb = item + (d << top)
            # seen holds no word ending in x, so the witness test comes first
            if nb >> last == x:
                return _unpack(nb, k)
            if nb in seen:
                continue
            if not room:
                raise _exhausted(_unpack(w, k), cap)
            room -= 1
            add(nb)
            push(nb)
    return None


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
    rules, w, seen = _closure(word, p, mode, limits)
    if seen is None:
        return Classification.ZERO
    if min(seen) != w:
        return Classification.NON_MINIMAL
    k = rules.k
    top = rules.n
    above = _top_above(w, k, top)
    if any(_top_suffix_witness(v, w, k, top, above) for v in seen):
        return Classification.TAME
    return Classification.SINGULAR


def initial_basis(p: Presentation, mode: IdealMode = IdealMode.FULL) -> MinimalBasis:
    """Degree-1 basis: every letter, each a class of its own."""
    rules = _rules(p, mode)
    n = rules.n
    minimals = tuple((x,) for x in range(1, n + 1))
    return MinimalBasis(1, minimals, rules, [-1, *range(n)], (1,) * n)


def _same_blocks(new: list, old: list) -> bool:
    """True when two blocks lists agree, trailing zero slots ignored."""
    m = min(len(new), len(old))
    return (new[:m] == old[:m] and all(c < 0 for c in new[m:])
            and all(c < 0 for c in old[m:]))


def _quotient_step(basis: MinimalBasis, rules: _Rules, limits: EngineLimits) -> MinimalBasis:
    """The basis one degree above ``basis``, from its class quotient alone.

    With w = n + 1, slot c*w + b stands for the block of words u + b with
    u in class c.  It is zero when a last letter of class c makes a zero
    monomial with b, and it joins slot t*w + r1 for every nonzero slot
    d*w + a of class c and every swap a b -> r0 r1, where t is the class
    of slot d*w + r0; a zero slot d*w + r0 makes it zero.  Zero spreads
    over its component.  The union-find links the larger root under the
    smaller, so parent[x] <= x throughout and one ascending pass leaves
    every slot at its root.  ResourceExhausted when the new degree has
    more than limits.max_classes classes, or a nonzero class more than
    limits.max_class_size words.  A new degree with no class, or with the
    same blocks as ``basis``, goes into ``rules.fates`` under the caps of
    ``limits``, the caps of ``basis``'s chain, before they are checked.
    """
    w = rules.n + 1
    joins = rules.joins
    zero_after = rules.zero_after
    minimals = basis.minimals
    blocks = basis._blocks
    count = len(minimals)
    parent = list(range(count * w))
    zero = []
    for a in range(1, w):
        za = zero_after[a]
        ja = joins[a]
        if not za and not ja:
            continue
        row = -w
        for c in blocks[a::w]:
            row += w
            if c < 0:
                continue
            base = c * w
            for b in za:
                zero.append(base + b)
            for b, r0, r1 in ja:
                t = blocks[row + r0]
                if t < 0:
                    zero.append(base + b)
                    continue
                x = base + b
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                y = t * w + r1
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
    for x in range(count * w):
        parent[x] = parent[parent[x]]
    dead = bytearray(count * w)
    for x in zero:
        dead[parent[x]] = 1
    # scanning slots by last letter, then by class, meets each class first
    # at its minimum and the classes in rtl order of their minima; a
    # degree with more classes than the one below neither dies nor repeats
    cap, width = caps = (limits.max_class_size, limits.max_classes)
    limit = max(width, count)
    ids = [-1] * (count * w)
    new_min = []
    new_size = []
    new_blocks = [-1] * (count * w)
    sizes = basis._sizes
    degree = basis.degree + 1
    for b in range(1, w):
        letter = (b,)
        u = b - w
        for c in range(count):
            u += w
            r = parent[u]
            if dead[r]:
                continue
            k = ids[r]
            if k < 0:
                k = ids[r] = len(new_min)
                if k == limit:
                    raise _too_wide(degree, width)
                new_min.append(minimals[c] + letter)
                new_size.append(sizes[c])
            else:
                new_size[k] += sizes[c]
            new_blocks[u] = k
    if caps not in rules.fates:
        if not new_min:
            rules.fates[caps] = ("dies", degree)
        elif len(new_min) == count and _same_blocks(new_blocks, blocks):
            rules.fates[caps] = ("repeats", degree)
    if len(new_min) > width:
        raise _too_wide(degree, width)
    for k, size in enumerate(new_size):
        if size > cap:
            raise _exhausted(new_min[k], cap)
    return MinimalBasis(degree, tuple(new_min), rules, new_blocks, tuple(new_size), caps)


def next_minimal_basis(basis: MinimalBasis, p: Presentation,
                       mode: IdealMode = IdealMode.FULL,
                       limits: EngineLimits = DEFAULT_LIMITS) -> MinimalBasis:
    """Minimal monomials one degree up from a complete minimal basis.

    The class quotient carried by ``basis`` gives the next degree's
    classes without walking them; a basis that carries none, or one built
    for another presentation or mode or under other caps, has its quotient
    rebuilt from degree 1 under these caps.  ResourceExhausted when the
    new degree has more than limits.max_classes classes, or a nonzero
    class more than limits.max_class_size words.
    """
    rules = _rules(p, mode)
    caps = (limits.max_class_size, limits.max_classes)
    if basis._rules is not rules or basis._caps not in (None, caps):
        start = initial_basis(p, mode)
        while start.degree < basis.degree:
            start = _quotient_step(start, rules, limits)
        basis = start
    return _quotient_step(basis, rules, limits)


def _require_qhs(p: Presentation) -> None:
    # a too-large alphabet is rejected first, whether or not it is a QHS
    _check_alphabet(p.alphabet.n)
    if not p.is_qhs:
        raise ValueError("singular sets are defined for valid QHS presentations only")


def iter_singular_sets(p: Presentation, limits: EngineLimits = DEFAULT_LIMITS):
    """Yield (degree, singular words) degree by degree against the reduced ideal.

    Factors of singular words are singular, so degree k+1 candidates are
    the extensions u + x of degree-k singular words whose length-k suffix
    is singular too, and the iteration may stop at the first empty degree:
    every later degree is empty as well.  Each degree's singular classes
    that hold a candidate's prefix are handed to the next, which walks them
    as blocks.  Runs until the set empties or limits.max_degree is reached.
    Requires a valid QHS.
    """
    _require_qhs(p)
    rules = _rules(p, IdealMode.WITHOUT_TOP)
    cap = limits.max_class_size
    k = rules.k
    letters = range(1, rules.n + 1)
    # a single letter packs to itself, and each singular letter is a class
    # of its own
    sing = list(letters[:-1])
    kept = [(~i << 8, w, (w,), {}, 1) for i, w in enumerate(sing[:_KEPT_WORD_BUDGET])]
    yield 1, tuple((w,) for w in sing)
    degree = 1
    while sing and degree < limits.max_degree:
        shift = k * degree  # where the new last letter goes
        degree += 1
        prev = set(sing)
        ends = [(x << shift, x << shift - k) for x in letters]
        cands = [u + end for u in sing for end, suffix_end in ends
                 if (u >> k) + suffix_end in prev]
        cands.sort()
        # only classes holding a candidate's prefix are handed on: the rest
        # (70% of the kept words on tower n=7) would only be met from other
        # classes, and their words are walked one by one instead.  Handing
        # every class on spares about a tenth of the n=7 walk, but it more
        # than doubles the walk's peak memory, and the walks it reorders
        # can meet the cap where these do not (tower n=6 at cap 1000)
        below = None  # free the old map before the new one is built
        mask = (1 << shift) - 1
        below = _hand_down(kept, {c & mask for c in cands}, k)
        del kept
        sing, kept = _singular_step(cands, rules, cap, below)
        yield degree, tuple(_unpack(w, k) for w in sing)


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


def _full_fate(p: Presentation, limits: EngineLimits):
    """The FULL quotient's fate under the caps of ``limits``, stepping it if unknown.

    Steps up to degree limits.max_degree + 1, stopping when the quotient
    dies, repeats or outgrows a limit; None when it was not seen to die or
    repeat by then.  Only chains stepped from degree 1 under one set of caps
    fill the record: ``next_minimal_basis`` rebuilds a basis of other caps.
    """
    rules = _rules(p, IdealMode.FULL)
    caps = (limits.max_class_size, limits.max_classes)
    if caps not in rules.fates:
        basis = initial_basis(p)
        try:
            while caps not in rules.fates and basis.degree <= limits.max_degree:
                basis = _quotient_step(basis, rules, limits)
        except ResourceExhausted:
            pass
    fate = rules.fates.get(caps)
    return fate if fate is not None and fate[1] <= limits.max_degree + 1 else None


def regularity_degree(p: Presentation,
                      limits: EngineLimits = DEFAULT_LIMITS) -> RegularityResult:
    """Search for the first degree with no singular words.

    Finding one at degree m settles everything: the algebra of the full
    presentation is nilpotent of index at most m + 1.  So when the FULL
    class quotient repeats, the algebra is infinite, no such degree exists,
    and the answer is 'irregular_up_to' at the degree cap without walking
    a singular set.  Otherwise the singular sets are walked degree by
    degree.  Requires a valid QHS.
    """
    _require_qhs(p)
    fate = _full_fate(p, limits)
    if fate is not None and fate[0] == "repeats":
        return RegularityResult(
            "irregular_up_to", limits.max_degree, None,
            f"full class quotient repeats at degree {fate[1]}: "
            "the algebra is infinite, with singular words in every degree")
    last = 0
    try:
        for degree, words in iter_singular_sets(p, limits):
            last = degree
            if not words:
                return RegularityResult("regular", degree, degree + 1)
        return RegularityResult("irregular_up_to", limits.max_degree)
    except ResourceExhausted as exc:
        return RegularityResult("inconclusive", last, None, str(exc))
