"""Capped regularity, Hilbert and power-witness answers on a fixed set of presentations, and their differential.

``write OUT`` runs ``regularity_degree`` with max_degree 12, and
``hilbert_profile`` to degree 12, at max_class_size 3, 10, 30, 100 and
1000 on every QHS with n <= 4, the tower presentations n = 5 and 6 and
every 97th n = 5 QHS, then both again on each at max_classes 2, 5 and 30
(max_class_size 1000), and ``power_witness`` on each tower at the same
class-size caps and at the default cap.  The width-cap runs of a
presentation follow its class-size-cap runs in the same process, so they
read the quotient chain that those runs stepped; a width-cap answer is
keyed ``@wN``.  It writes the answers as JSON, each with its
``detail`` (for a capped run, the word or degree where it stopped).  A
profile answer is its verdict: ``finite:N``, ``open:12`` or
``inconclusive:D``.  A witness answer is ``found:`` with the witness, or
``none:`` when the class holds no member ending in the top letter, or
``inconclusive:0`` at the cap.  ``compare OLD NEW`` lists every answer or
detail that moved between two such files and exits 1 when a conclusive
answer changed (a found witness moved or became none, say) or an answer
became less conclusive (an inconclusive answer is more conclusive the
higher its degree, and any conclusive one, ``finite`` and ``open``
included, more so); a moved detail alone is listed but does not fail.  To
check an engine change, run this one script's ``write`` twice, once with
each checkout's ``src`` on PYTHONPATH, then ``compare`` the two files.
Both files must be written by the same script: an answer that only one of
them holds fails the comparison.  The full set gives 11804 answers (5896
regularity, 5896 Hilbert, 12 witness) in about 8 s on a 2-vCPU host.
"""

import argparse
import json
import sys

from quadsemi.analysis import hilbert_profile
from quadsemi.census import QHS_ENUM_CAP, enumerate_qhs
from quadsemi.constructions import build_regular_qhs, power_witness, witness_power
from quadsemi.engine import (
    DEFAULT_LIMITS,
    ENGINE_VERSION,
    EngineLimits,
    ResourceExhausted,
    _check_alphabet,
    regularity_degree,
)
from quadsemi.model import monomial_str, presentation_hash

CAPS = (3, 10, 30, 100, 1000)
WIDTHS = (2, 5, 30)
MAX_DEGREE = 12


def _non_negative(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return k


def _qhs_size(text: str) -> int:
    n = _non_negative(text)
    if n > QHS_ENUM_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {QHS_ENUM_CAP}")
    return n


def _tower_size(text: str) -> int:
    n = int(text)
    try:
        witness_power(n)  # a tower witness needs n >= 5
        _check_alphabet(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n


def cases(max_n: int, towers: list, n5_every: int):
    """(label, presentation) for the fixed set, or a subset of it."""
    for n in range(1, max_n + 1):
        for p in enumerate_qhs(n):
            yield f"n{n}", p
    for n in towers:
        yield f"tower{n}", build_regular_qhs(n)
    if n5_every:
        for k, p in enumerate(enumerate_qhs(5)):
            if k % n5_every == 0:
                yield f"n5#{k}", p


def answer(result) -> str:
    return f"{result.status}:{result.degree}"


def witness_answer(p, cap: int) -> tuple:
    """(answer, detail) of ``power_witness`` at the class-size cap."""
    try:
        witness = power_witness(p, limits=EngineLimits(max_class_size=cap))
    except ResourceExhausted as exc:
        return "inconclusive:0", str(exc)
    return ("none:", "") if witness is None else (f"found:{monomial_str(witness)}", "")


def write(args) -> int:
    answers = {}
    for label, p in cases(args.max_n, args.towers, args.n5_every):
        key = presentation_hash(p)
        runs = [(str(cap), EngineLimits(max_class_size=cap, max_degree=MAX_DEGREE))
                for cap in CAPS]
        runs += [(f"w{width}", EngineLimits(max_class_size=CAPS[-1], max_degree=MAX_DEGREE,
                                            max_classes=width)) for width in WIDTHS]
        for tag, limits in runs:
            result = regularity_degree(p, limits)
            answers[f"{key}@{tag}"] = [label, answer(result), result.detail]
            profile = hilbert_profile(p, MAX_DEGREE, limits=limits)
            answers[f"{key}@{tag}:hilbert"] = [label, profile.verdict, profile.detail]
    for n in args.towers:
        p = build_regular_qhs(n)
        key = presentation_hash(p)
        for cap in (*CAPS, DEFAULT_LIMITS.max_class_size):
            answers[f"{key}@{cap}:witness"] = [f"tower{n}", *witness_answer(p, cap)]
    with open(args.out, "w") as fh:
        json.dump({"engine_version": ENGINE_VERSION, "max_degree": MAX_DEGREE,
                   "answers": answers}, fh, indent=0, sort_keys=True)
    print(f"{len(answers)} answers written to {args.out}")
    return 0


def _rank(ans: str) -> tuple:
    status, degree = ans.rsplit(":", 1)
    return (0, int(degree)) if status == "inconclusive" else (1, 0)


def compare(args) -> int:
    with open(args.old) as fh:
        old = json.load(fh)["answers"]
    with open(args.new) as fh:
        new = json.load(fh)["answers"]
    bad = 0
    moved = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key in new else 'old'}")
            bad += 1
            continue
        (label, a, detail_a), (_label, b, detail_b) = old[key], new[key]
        if a == b:
            if detail_a != detail_b:
                moved += 1
                print(f"{key} ({label}): {a} detail {detail_a!r} -> {detail_b!r}")
            continue
        moved += 1
        ra, rb = _rank(a), _rank(b)
        if ra[0] and rb[0]:
            verdict = "DISAGREES"
        elif rb < ra:
            verdict = "LESS CONCLUSIVE"
        else:
            verdict = "more conclusive"
        bad += verdict != "more conclusive"
        print(f"{key} ({label}): {a} -> {b}  {verdict}")
    print(f"{len(old)} answers, {moved} moved, {bad} bad")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="compute the answers and write them as JSON")
    w.add_argument("out")
    w.add_argument("--max-n", type=_qhs_size, default=4, help="every QHS with n up to this")
    w.add_argument("--towers", type=_tower_size, nargs="*", default=[5, 6])
    w.add_argument("--n5-every", type=_non_negative, default=97,
                   help="every k-th n = 5 QHS; 0 for none")
    w.set_defaults(run=write)
    c = sub.add_parser("compare", help="list the answers that moved between two files")
    c.add_argument("old")
    c.add_argument("new")
    c.set_defaults(run=compare)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
