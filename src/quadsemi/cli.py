"""Command line front end.

Exit codes are uniform across subcommands: 0 when a definite verdict or
output was produced, 2 when resource caps or a lack of memory left the
question open (or a searched-for object was not found), 1 for unusable
input.  Human-readable text and machine output never share a stream: JSON
and CSV appear only behind their flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

from . import __version__
from .analysis import hilbert_profile, profile_to_json
from .cache import resolve_cache
from .census import (
    CENSUS_LIMITS,
    census_csv,
    census_records,
    enumerate_presentations,
    enumerate_qhs,
)
from .certificates import (
    CertificateKind,
    certificate_to_json,
    search_certificate,
    verify_witness,
)
from .constructions import (
    build_regular_qhs,
    extend,
    power_witness,
    witness_power,
    wisliceny_count,
)
from .engine import (
    DEFAULT_LIMITS,
    EngineLimits,
    ResourceExhausted,
    _check_alphabet,
    regularity_degree,
    singular_monomials,
)
from .model import canonical_json, delta, monomial_str, presentation_hash, validate_qhs
from .textio import (
    PresentationSyntaxError,
    load_presentation,
    render_json,
    render_presentation,
)

OK = 0
INPUT_ERROR = 1
INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for
    inconclusive verdicts, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadsemi",
        description="Workbench for quadratic semigroup algebras: presentation "
        "validation, coset rewriting, Hilbert profiles, nilpotency search, "
        "infinite-dimensionality certificates, and small-n enumeration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--max-class-size", type=_positive, default=None, metavar="N",
        help="most words one class walk may visit: a longer walk makes a "
        "regularity, singular, lemma-m1 or witness-power answer inconclusive; "
        "dimension answers walk no class "
        f"(default {DEFAULT_LIMITS.max_class_size})",
    )
    parser.add_argument(
        "--max-classes", type=_positive, default=None, metavar="N",
        help="widest degree of the class quotient considered: a degree with "
        "more than N classes makes a dimension answer inconclusive "
        f"(default {DEFAULT_LIMITS.max_classes})",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="read/write finished runs under DIR (default: $QUADSEMI_CACHE_DIR)",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    s = sub.add_parser("validate", help="check a presentation file against the QHS rules")
    s.add_argument("file")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("build", help="emit the minimum-size tower QHS on n generators")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--out", default=None, metavar="FILE")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("extend", help="wrap a QHS file into one on four more generators")
    s.add_argument("file")
    s.add_argument("--out", default=None, metavar="FILE")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("hilbert", help="graded dimensions of the quotient algebra")
    s.add_argument("file")
    s.add_argument("--max-degree", type=_positive, default=None, metavar="D")
    fmt = s.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    s = sub.add_parser("nilpotency", help="smallest degree whose words all die in the ideal")
    s.add_argument("file")
    s.add_argument("--cap", type=_positive, default=None, metavar="D", dest="max_degree")

    s = sub.add_parser("singular", help="singular monomials of one degree")
    s.add_argument("file")
    s.add_argument("--degree", type=_positive, required=True)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("regularity", help="first degree with no singular monomials")
    s.add_argument("file")
    s.add_argument("--cap", type=_positive, default=None, metavar="D", dest="max_degree")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("certify", help="search for an infinite-dimensionality certificate")
    s.add_argument("file")
    s.add_argument("--verify-k", type=_positive, default=None, metavar="K",
                   help="additionally walk the witness power (ab)^K")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("lemma-m1", help="check the power word x1^q reaches the top letter")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--power", type=_positive, default=None, metavar="Q",
                   help="override the built-in power for n")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("enumerate", help="list all QHS (or all presentations) at tiny n")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--presentations", action="store_true",
                   help="enumerate arbitrary relation sets instead of QHS")
    s.add_argument("--d-max", type=_positive, default=None, metavar="D")
    s.add_argument("--count", action="store_true", help="print only the count")

    s = sub.add_parser("delta-table", help="CSV of the relation-count threshold per n")
    s.add_argument("--max-n", type=_positive, required=True)

    s = sub.add_parser("census", help="CSV census of every QHS on n generators")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--out", default=None, metavar="FILE")

    return parser


def _limits(args, base: EngineLimits = DEFAULT_LIMITS) -> EngineLimits:
    """base with every cap flag the command line gave: the global class caps
    and a command's degree cap (``--max-degree`` or ``--cap``)."""
    caps = {name: cap for name in ("max_class_size", "max_classes", "max_degree")
            if (cap := getattr(args, name, None)) is not None}
    return replace(base, **caps) if caps else base


def _load(path):
    try:
        return load_presentation(path)
    except PresentationSyntaxError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, out: str | None, written: str | None = None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {written or out}")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cached_result(args, p, operation: str, parameters: dict, compute):
    cache = resolve_cache(args.cache)
    if cache is None:
        return compute()
    key = presentation_hash(p)
    hit = cache.lookup(key, operation, parameters)
    if hit is not None:
        return hit
    start = time.perf_counter()
    result = compute()
    cache.store(key, operation, parameters, result, time.perf_counter() - start)
    return result


def _cmd_validate(args) -> int:
    p = _load(args.file)
    report = validate_qhs(p)
    if args.json:
        _print_json(
            {
                "valid": report.valid,
                "violations": [
                    {
                        "kind": v.kind.value,
                        "detail": v.detail,
                        "pair": list(v.pair) if v.pair is not None else None,
                    }
                    for v in report.violations
                ],
            }
        )
    elif report.valid:
        print(f"valid QHS: {p.alphabet.n} generators, {len(p.relations)} relations")
    else:
        print("invalid QHS:")
        for v in report.violations:
            print(f"  {v.kind.value}: {v.detail}")
    return OK if report.valid else INPUT_ERROR


def _render_presentation(p, as_json: bool) -> str:
    return render_json(p) if as_json else render_presentation(p)


def _cmd_build(args) -> int:
    p = build_regular_qhs(args.n)
    _emit(_render_presentation(p, args.json), args.out)
    return OK


def _cmd_extend(args) -> int:
    p = extend(_load(args.file))
    _emit(_render_presentation(p, args.json), args.out)
    return OK


def _hilbert_result(args, p) -> dict:
    limits = _limits(args)
    parameters = {"max_degree": limits.max_degree, "max_classes": limits.max_classes}
    return _cached_result(args, p, "hilbert", parameters,
                          lambda: profile_to_json(hilbert_profile(p, limits=limits)))


def _cmd_hilbert(args) -> int:
    result = _hilbert_result(args, _load(args.file))
    dims = result["dims"]
    if args.json:
        _print_json(result)
    elif args.csv:
        print("degree,dimension")
        for m, dim in enumerate(dims):
            print(f"{m},{dim}")
    else:
        for m, dim in enumerate(dims):
            print(f"degree {m}: {dim}")
        if result["nilpotency_index"] is not None:
            print(f"nilpotency index {result['nilpotency_index']}, "
                  f"total dimension {sum(dims)}")
        elif result["exhausted"] is not None:
            print(f"inconclusive at degree {result['exhausted']}: {result['detail']}")
        else:
            print(f"open: no vanishing degree up to {result['truncated_at']}")
    return OK if result["nilpotency_index"] is not None else INCONCLUSIVE


def _cmd_nilpotency(args) -> int:
    result = _hilbert_result(args, _load(args.file))
    if result["nilpotency_index"] is not None:
        print(f"nilpotency index: {result['nilpotency_index']}")
        return OK
    if result["exhausted"] is not None:
        print(f"inconclusive at degree {result['exhausted']}: {result['detail']}")
    else:
        print(f"inconclusive: no vanishing degree up to {result['truncated_at']}")
    return INCONCLUSIVE


def _cmd_singular(args) -> int:
    p = _load(args.file)
    limits = _limits(args)
    parameters = {"degree": args.degree, "max_class_size": limits.max_class_size}

    def compute() -> dict:
        words = singular_monomials(p, args.degree, limits)
        return {"degree": args.degree, "singular": [list(w) for w in words]}

    result = _cached_result(args, p, "singular", parameters, compute)
    if args.json:
        _print_json(result)
    else:
        words = result["singular"]
        print(f"# degree {result['degree']}: {len(words)} singular")
        for w in words:
            print(monomial_str(tuple(w)))
    return OK


def _cmd_regularity(args) -> int:
    p = _load(args.file)
    limits = _limits(args)
    parameters = {"cap": limits.max_degree, "max_class_size": limits.max_class_size,
                  "max_classes": limits.max_classes}
    result = _cached_result(args, p, "regularity", parameters,
                            lambda: asdict(regularity_degree(p, limits)))
    if args.json:
        _print_json(result)
    elif result["status"] == "regular":
        print(f"regular at degree {result['degree']} "
              f"(nilpotency index at most {result['nilpotency_bound']})")
    elif result["status"] == "irregular_up_to":
        print(f"singular monomials persist through degree {result['degree']}")
        if result["detail"]:
            print(result["detail"])
    else:
        print(f"inconclusive: {result['detail']}")
    return OK if result["status"] == "regular" else INCONCLUSIVE


def _cmd_certify(args) -> int:
    p = _load(args.file)
    cert = search_certificate(p)
    verified = None
    if args.verify_k is not None and cert.kind is CertificateKind.SE_PAIR:
        verified = verify_witness(cert.pair, args.verify_k, p, _limits(args))
    if args.json:
        obj = certificate_to_json(cert)
        if verified is not None:
            obj["witness_power"] = args.verify_k
            obj["witness_nonzero"] = verified
        _print_json(obj)
    else:
        for line in cert.transcript:
            print(line)
        if cert.kind is CertificateKind.SE_PAIR:
            a, b = cert.pair
            print(f"certificate: se_pair ({a}, {b})")
        elif cert.kind is CertificateKind.ZERO_SUM:
            print("certificate: zero_sum")
        else:
            print(f"no certificate: {cert.reason}")
        if verified is not None:
            print(f"witness power {args.verify_k}: "
                  f"{'nonzero' if verified else 'ZERO (invalid pair)'}")
    return OK if cert.found else INCONCLUSIVE


def _cmd_lemma_m1(args) -> int:
    q = args.power if args.power is not None else witness_power(args.n)
    _check_alphabet(args.n)  # before the tower is built, not after
    p = build_regular_qhs(args.n)
    limits = _limits(args)
    parameters = {"n": args.n, "q": q, "max_class_size": limits.max_class_size}

    def compute() -> dict:
        witness = power_witness(p, q, limits)
        return {
            "n": args.n,
            "q": q,
            "witness": list(witness) if witness is not None else None,
        }

    result = _cached_result(args, p, "lemma-m1", parameters, compute)
    if args.json:
        _print_json(result)
    elif result["witness"] is not None:
        print(f"power {q}: witness {monomial_str(tuple(result['witness']))}")
    else:
        print(f"power {q}: no class member ends in x{args.n}")
    return OK if result["witness"] is not None else INCONCLUSIVE


def _cmd_enumerate(args) -> int:
    if args.presentations:
        if args.d_max is None:
            raise ValueError("--presentations requires --d-max")
        stream = enumerate_presentations(args.n, args.d_max)
    else:
        if args.d_max is not None:
            raise ValueError("--d-max applies only with --presentations")
        stream = enumerate_qhs(args.n)
    if args.count:
        print(sum(1 for _ in stream))
    else:
        for p in stream:
            print(canonical_json(p))
    return OK


def _cmd_delta_table(args) -> int:
    print("n,delta,wisliceny,(n^2+n)/4,gap")
    for n in range(1, args.max_n + 1):
        d = delta(n)
        w = wisliceny_count(n)
        threshold = (n * n + n) / 4
        print(f"{n},{d},{w},{threshold:g},{w - d}")
    return OK


def _cmd_census(args) -> int:
    records = census_records(args.n, _limits(args, CENSUS_LIMITS))
    _emit(census_csv(records), args.out, f"{len(records)} records to {args.out}")
    return OK


_HANDLERS = {
    "validate": _cmd_validate,
    "build": _cmd_build,
    "extend": _cmd_extend,
    "hilbert": _cmd_hilbert,
    "nilpotency": _cmd_nilpotency,
    "singular": _cmd_singular,
    "regularity": _cmd_regularity,
    "certify": _cmd_certify,
    "lemma-m1": _cmd_lemma_m1,
    "enumerate": _cmd_enumerate,
    "delta-table": _cmd_delta_table,
    "census": _cmd_census,
}


_parser = None  # built at the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        # unusable input, as the loader or the library reports it
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ResourceExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except MemoryError:
        # the walk's structures are freed with the frames that held them
        print("inconclusive: out of memory", file=sys.stderr)
        return INCONCLUSIVE
    except BrokenPipeError:
        return OK
    except OSError as exc:
        # a file that cannot be read or written: a missing input, an
        # unwritable --out, an unusable --cache
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
