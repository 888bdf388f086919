"""Survey the tower algebras: regularity degree, nilpotency index, dimensions.

Runs the full coset engine on build_regular_qhs(n) for a range of n and
prints one row per algebra.  n = 7 takes 8 to 13 s on a shared 2-vCPU
host, nearly all of it the regularity search; its Hilbert profile, which
runs first so that regularity reads the quotient's end, takes about
0.3 s.  The n = 8 regularity search does not finish at desk range, so an
n = 8 row is not reached; the n = 8 Hilbert profile alone (``quadsemi
hilbert``) ends at nilpotency index 23 with total dimension 615,845 in
about 3 s of CPU and 128 MB of peak resident memory on the same host.
"""

import argparse
import sys
import time

from quadsemi.analysis import hilbert_profile, total_dimension
from quadsemi.constructions import build_regular_qhs
from quadsemi.engine import EngineLimits, regularity_degree
from quadsemi.model import delta


def survey_row(n: int, limits: EngineLimits) -> str:
    p = build_regular_qhs(n)
    t0 = time.perf_counter()
    # the profile goes first: regularity reads the quotient's end that it
    # records under the same caps, instead of stepping the quotient again
    profile = hilbert_profile(p, max_degree=limits.max_degree, limits=limits)
    reg = regularity_degree(p, limits)
    if reg.status == "regular":
        nilp = profile.nilpotency_index
        total = total_dimension(profile)
        verdict = f"regular:{reg.degree}"
    else:
        nilp = None
        total = None
        verdict = f"{reg.status}:{reg.degree}"
    elapsed = time.perf_counter() - t0
    return (f"{n:>3}  {delta(n):>5}  {verdict:>16}  "
            f"{nilp if nilp is not None else '-':>5}  "
            f"{total if total is not None else '-':>8}  {elapsed:>7.2f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--cap", type=int, default=40, help="degree cap")
    parser.add_argument("--max-class-size", type=int, default=5_000_000)
    args = parser.parse_args(argv)

    limits = EngineLimits(max_class_size=args.max_class_size, max_degree=args.cap)
    print("  n  rels         regularity   nilp     total     time")
    for n in range(args.min_n, args.max_n + 1):
        print(survey_row(n, limits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
