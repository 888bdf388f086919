"""Dimension counting for quadratic semigroup algebras.

The algebra's degree-m piece has the nonzero coset classes of degree-m
words as a basis, so its dimension is the number of minimal monomials of
that degree.  Profiles are computed against the full ideal; the sequence of
dimensions hitting zero at degree m gives nilpotency index m (the first
vanishing power of the augmentation part).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    DEFAULT_LIMITS,
    EngineLimits,
    ResourceExhausted,
    _chain,
    regularity_degree,
)
from .model import IdealMode, Presentation


@dataclass(frozen=True)
class HilbertProfile:
    """Graded dimensions dims[m] for m = 0..len-1, starting at dims[0] = 1.

    Exactly one of three endings:

      nilpotency_index set    dims ends with a 0 at that degree
      truncated_at set        the degree cap stopped the run, tail unknown
      exhausted set           a resource cap stopped the run at that degree,
                              and detail names it
    """

    n: int
    mode: IdealMode
    dims: tuple
    nilpotency_index: int | None = None
    truncated_at: int | None = None
    exhausted: int | None = None
    detail: str = ""

    @property
    def verdict(self) -> str:
        if self.nilpotency_index is not None:
            return f"finite:{self.nilpotency_index}"
        if self.exhausted is not None:
            return f"inconclusive:{self.exhausted}"
        return f"open:{self.truncated_at}"


def hilbert_profile(p: Presentation, max_degree: int | None = None,
                    mode: IdealMode = IdealMode.FULL,
                    limits: EngineLimits = DEFAULT_LIMITS) -> HilbertProfile:
    """Dimensions degree by degree until they vanish or a cap interferes.

    Works for any presentation the engine accepts, not only QHS ones.
    """
    cap = limits.max_degree if max_degree is None else max_degree
    if cap < 0:
        raise ValueError("max_degree must be nonnegative")
    dims, _end, exc = _chain(p, mode, cap, limits.max_classes)
    if exc is not None:
        return HilbertProfile(p.n, mode, dims, exhausted=exc.degree, detail=str(exc))
    if not dims[-1]:
        return HilbertProfile(p.n, mode, dims, nilpotency_index=len(dims) - 1)
    # every degree past a repeat has the repeat's count
    return HilbertProfile(p.n, mode, dims + dims[-1:] * (cap + 1 - len(dims)), truncated_at=cap)


def profile_and_regularity(p: Presentation, limits: EngineLimits = DEFAULT_LIMITS) -> tuple:
    """The FULL Hilbert profile and the regularity of a QHS, both under ``limits``.

    Both read the one chain of the FULL class quotient: regularity steps
    it to one degree past the cap or to its end, and the profile reads its
    counts from there, so each degree is stepped once.  A chain cut by
    max_classes keeps no count for the wide degree, and the profile steps
    the chain again up to it.
    """
    regularity = regularity_degree(p, limits)
    return hilbert_profile(p, limits=limits), regularity


def total_dimension(profile: HilbertProfile) -> int | None:
    """Sum of all graded dimensions, or None when the profile never hit zero."""
    if profile.nilpotency_index is None:
        return None
    return sum(profile.dims)


@dataclass(frozen=True)
class Dim3Report:
    """Degree-3 dimension next to the generic lower bound n^3 - 2*d*n.

    d is the relation count.  By Golod-Shafarevich every quadratic
    presentation has dim3 >= n*dim2 - d*n >= n^3 - 2*d*n, so no dimension
    lies under the bound; ``below_bound`` is true when the bound lies
    strictly below the dimension.  The report draws no further conclusion.
    """

    n: int
    relation_count: int
    dim3: int
    gs_value: int

    @property
    def below_bound(self) -> bool:
        # True when n^3 - 2dn lies strictly below the degree-3 dimension
        return self.gs_value < self.dim3


def dim3_report(p: Presentation,
                limits: EngineLimits = DEFAULT_LIMITS) -> Dim3Report:
    profile = hilbert_profile(p, max_degree=3, mode=IdealMode.FULL, limits=limits)
    if len(profile.dims) < 4:
        if profile.nilpotency_index is None:
            raise ResourceExhausted(profile.detail, degree=profile.exhausted)
        dim3 = 0  # dimension vanished before degree 3 and stays zero
    else:
        dim3 = profile.dims[3]
    n = p.alphabet.n
    d = len(p.relations)
    return Dim3Report(n, d, dim3, n ** 3 - 2 * d * n)


def profile_to_json(profile: HilbertProfile) -> dict:
    return {
        "n": profile.n,
        "mode": profile.mode.value,
        "dims": list(profile.dims),
        "nilpotency_index": profile.nilpotency_index,
        "truncated_at": profile.truncated_at,
        "exhausted": profile.exhausted,
        "detail": profile.detail,
        "verdict": profile.verdict,
    }

