"""Sweep every small quadratic presentation and try to certify infinitude.

For each n the sweep covers all presentations with at most (n^2+n)/4
relations, searches for a stable-pair or zero-sum certificate, and
optionally replays each stable pair as a nonzero power word.  n = 3 visits
15226 presentations and takes about a second on a 2-vCPU host, with
verification to k = 4 on.
"""

import argparse
import sys
import time

from quadsemi.census import GENERAL_ENUM_CAP, certificate_sweep
from quadsemi.cli import _positive


def _generator_count(text: str) -> int:
    n = _positive(text)
    if n > GENERAL_ENUM_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {GENERAL_ENUM_CAP}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=_generator_count, nargs="+", default=[2, 3])
    parser.add_argument("--verify-k", type=_positive, default=None,
                        help="replay each stable pair to this power")
    args = parser.parse_args(argv)

    worst = 0
    for n in args.n:
        t0 = time.perf_counter()
        report = certificate_sweep(n, verify_k=args.verify_k)
        elapsed = time.perf_counter() - t0
        print(f"n={report.n} d_max={report.d_max} total={report.total} "
              f"se_pair={report.se_pair_count} zero_sum={report.zero_sum_count} "
              f"uncertified={report.uncertified} invalid={report.invalid} "
              f"witness_failures={report.witness_failures} ({elapsed:.1f}s)")
        if not report.all_certified:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
