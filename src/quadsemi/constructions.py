"""Explicit QHS families: small bases, the 4-generator extension, towers.

The extension step wraps a QHS on m generators into one on m + 4: inner
letters shift up by two, two new letters appear below them and two above,
the inner top-product relation is dropped, and a fixed pattern of equality
relations ties the new letters to the old ones.  Iterating the step over a
small base gives, for every n, a QHS whose relation count meets the known
minimum delta(n), and these are the presentations the nilpotency search
runs on.  A tower is assembled in one pass from that wiring, each relation
shifted once to its final letters; ``extend`` is the pass with one level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import DEFAULT_LIMITS, EngineLimits, _first_member_ending_in
from .model import (
    IdealMode,
    Presentation,
    Relation,
    Word,
    delta,
    presentation,
)

_BASE_RELATIONS = {
    1: [Relation.zero(1, 1)],
    2: [
        Relation.equal((2, 2), (1, 1)),
        Relation.zero(2, 1),
    ],
    3: [
        Relation.equal((3, 3), (2, 1)),
        Relation.equal((3, 2), (1, 1)),
        Relation.zero(2, 2),
        Relation.zero(3, 1),
    ],
    4: [
        Relation.equal((4, 4), (3, 1)),
        Relation.equal((4, 3), (2, 1)),
        Relation.equal((4, 2), (1, 1)),
        Relation.equal((3, 3), (2, 2)),
        Relation.zero(3, 2),
        Relation.zero(4, 1),
    ],
}


def base_qhs(n: int) -> Presentation:
    """Hand-built minimum-size QHS for n = 1..4, the towers' ground floors."""
    if n not in _BASE_RELATIONS:
        raise ValueError("base presentations exist for 1 <= n <= 4 only")
    return presentation(n, _BASE_RELATIONS[n])


def _wrap(inner: Presentation, levels: int) -> Presentation:
    """``levels`` extension steps around a QHS on m generators, in one pass.

    Step t (1..levels) adds its equalities on m + 4t letters, and each
    later step raises them by two, so they are written raised by
    2(levels - t) and the inner relations by 2 levels.  Every step drops
    the top zero of the one below: the inner x_m*x_1 = 0 is skipped, and
    only the last top zero x_n*x_1 = 0 is added.
    """
    m = inner.alphabet.n
    n = m + 4 * levels
    top = Relation.zero(m, 1)
    pairs = [(2 * levels, r.left, r.right) for r in inner.relations if r != top]
    for t in range(1, levels + 1):
        k, s = m + 4 * t, 2 * (levels - t)
        pairs += [(s, (k, j), (j, 1)) for j in range(2, k - 1)]
        pairs += [(s, (k - 1, j + 1), (j, 2)) for j in range(2, k - 2)]
        pairs += [(s, (k, k), (k - 1, 1)), (s, (k, k - 1), (k - 2, 2)),
                  (s, (k - 1, k - 1), (k - 2, 3)), (s, (k - 1, 2), (1, 1))]
    rels = [Relation((a + s, b + s), None if right is None else (right[0] + s, right[1] + s))
            for s, (a, b), right in pairs]
    rels.append(Relation.zero(n, 1))
    return presentation(n, rels)


def extend(inner: Presentation) -> Presentation:
    """QHS on m + 4 generators wrapping a valid QHS on m generators.

    Inner letter i becomes i + 2; letters 1, 2 and n - 1, n are new.  The
    inner top zero x_m*x_1 = 0 is dropped rather than relabeled, and the
    new letters are wired in by three equality families plus the fresh top
    zero x_n*x_1 = 0.  The result is again a valid QHS and adds
    2(m + 4) - 3 relations net.
    """
    if not inner.is_qhs:
        raise ValueError("extension requires a valid QHS inner presentation")
    return _wrap(inner, 1)


@dataclass(frozen=True)
class TowerSpec:
    """How to reach n generators: a base size and a number of extensions."""

    n: int
    base_size: int
    extensions: int


def tower_spec(n: int) -> TowerSpec:
    if n < 1:
        raise ValueError("n must be at least 1")
    j = (n - 1) // 4
    return TowerSpec(n, n - 4 * j, j)


def build_regular_qhs(n: int) -> Presentation:
    """Tower presentation on n generators with exactly delta(n) relations."""
    spec = tower_spec(n)
    p = _wrap(base_qhs(spec.base_size), spec.extensions)
    assert len(p.relations) == delta(n)
    return p


def witness_power(n: int) -> int:
    """Power q such that the class of x1^q reaches the top letter x_n.

    Defined for the tower presentations with n >= 5: floor((5n - 8) / 2),
    which is (5n - 8) / 2 for even n and (5n - 9) / 2 for odd n.
    """
    if n < 5:
        raise ValueError("witness powers are defined for n >= 5")
    return (5 * n - 8) // 2


def power_witness(p: Presentation, q: int | None = None,
                  limits: EngineLimits = DEFAULT_LIMITS) -> Word | None:
    """Member of the reduced-ideal class of x1^q ending in the top letter.

    Takes the first such member in ``iter_class`` order (depth-first, root
    first, each member in discovery order), because at moderate n the full
    class is far larger than the distance to a witness.  The engine finds
    it with a scan of its own that tests only the swaps at the last
    position, the only ones that change the last letter.  Returns None when
    the closure is exhausted without one; raises ResourceExhausted where
    ``iter_class`` would.  The default power is witness_power(n).
    """
    n = p.alphabet.n
    if q is None:
        q = witness_power(n)
    if q < 1:
        raise ValueError("the power must be at least 1")
    return _first_member_ending_in((1,) * q, n, p, IdealMode.WITHOUT_TOP, limits)


def wisliceny_count(n: int) -> int:
    """Relation count of the classical pure construction on n generators.

    Wisliceny's bound: (n^2 + 2n) / 4 rounded up, the proven minimum for
    QHS presentations all of whose generators are pure.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return -(-(n * n + 2 * n) // 4)
