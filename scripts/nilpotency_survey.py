"""Survey the tower algebras: regularity degree, nilpotency index, dimensions.

Runs ``profile_and_regularity`` on build_regular_qhs(n) for a range of n
and prints one row per algebra; the nilpotency index and total dimension
come from the Hilbert profile ('-' if it outlives the degree cap).  n = 7
takes 6.5 to 7.5 s on a shared 2-vCPU Intel Xeon host, nearly all of it
the regularity search.  The n = 8 regularity search does not finish at
desk range; the n = 8 Hilbert profile alone (``quadsemi hilbert``) ends
at nilpotency index 23 with total dimension 615,845 in about 3 s of CPU
and 96 MB of peak resident memory on the same host.
"""

import argparse
import sys
import time

from quadsemi.analysis import profile_and_regularity, total_dimension
from quadsemi.cli import _positive
from quadsemi.constructions import build_regular_qhs
from quadsemi.engine import DEFAULT_LIMITS, EngineLimits, _check_alphabet
from quadsemi.model import delta


def _generator_count(text: str) -> int:
    n = _positive(text)
    try:
        _check_alphabet(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n


def survey_row(n: int, limits: EngineLimits) -> str:
    p = build_regular_qhs(n)
    t0 = time.perf_counter()
    profile, reg = profile_and_regularity(p, limits)
    nilp, total = profile.nilpotency_index, total_dimension(profile)
    elapsed = time.perf_counter() - t0
    verdict = f"{reg.status}:{reg.degree}"
    return (f"{n:>3}  {delta(n):>5}  {verdict:>16}  "
            f"{nilp if nilp is not None else '-':>5}  "
            f"{total if total is not None else '-':>8}  {elapsed:>7.2f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=_generator_count, default=1)
    parser.add_argument("--max-n", type=_generator_count, default=6)
    parser.add_argument("--cap", type=_positive, default=40, help="degree cap")
    parser.add_argument("--max-class-size", type=_positive,
                        default=DEFAULT_LIMITS.max_class_size)
    args = parser.parse_args(argv)

    limits = EngineLimits(max_class_size=args.max_class_size, max_degree=args.cap)
    print("  n  rels         regularity   nilp     total     time")
    for n in range(args.min_n, args.max_n + 1):
        print(survey_row(n, limits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
