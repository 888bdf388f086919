"""Reading and writing presentation files.

Two formats are supported.  The line-based text format:

    generators 5
    x5*x2 = x2*x1
    x5*x1 = 0

with ``#`` comments and blank lines ignored, and a JSON object

    {"n": 5, "relations": [{"zero": [5, 1]}, {"equal": [[5, 2], [2, 1]]}]}

``parse_presentation`` sniffs the format from the first non-blank character.
Parsing canonicalises: ``x1*x1 = x2*x2`` and ``x2*x2 = x1*x1`` denote the
same relation, and repeating one is a duplicate error.

A process parses each distinct text once: results are memoized by the full
text (the 256 most recent), and every parse of one text returns the same
frozen ``Presentation``.  ``load_presentation`` reads its file on every
call, so an edited file is parsed again.  Errors are raised afresh on every
call, never memoized.
"""

from __future__ import annotations

import json
import re
import sys
from functools import lru_cache
from pathlib import Path

from .model import Presentation, Relation, from_json_dict, presentation, to_json_dict


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ASCII: a bare \d also matches other scripts' digits, such as "٣" for 3
_HEADER_RE = re.compile(r"generators\s+(\d+)\s*$", re.ASCII)
_RELATION_RE = re.compile(
    r"x(\d+)\s*\*\s*x(\d+)\s*=\s*(?:0|x(\d+)\s*\*\s*x(\d+))\s*$", re.ASCII
)
# longest quoted relation line an error echoes in full
_ECHO_CHARS = 80


def parse_presentation(text: str) -> Presentation:
    """Parse either supported format, raising errors with line numbers."""
    return _parse_once(text)


@lru_cache(maxsize=256)
def _parse_once(text: str) -> Presentation:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_json(text: str) -> Presentation:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationSyntaxError(f"invalid JSON: {exc}", exc.lineno) from None
    except ValueError:  # the one other failure: an integer too long to convert
        run = re.search("[0-9]{%d,}" % (sys.get_int_max_str_digits() + 1), text)
        raise PresentationSyntaxError(
            f"invalid JSON: a {len(run.group())}-digit number is too long",
            text.count("\n", 0, run.start()) + 1) from None
    try:
        return from_json_dict(data)
    except ValueError as exc:
        raise PresentationSyntaxError(str(exc)) from None


def _parse_text(text: str) -> Presentation:
    n = None
    relations: list[Relation] = []
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            m = _HEADER_RE.fullmatch(line)
            if m is None:
                raise PresentationSyntaxError(
                    "expected a 'generators N' header before any relation", lineno
                )
            n = _number(m.group(1), lineno)
            if n < 1:
                raise PresentationSyntaxError("generator count must be at least 1", lineno)
            continue
        m = _RELATION_RE.fullmatch(line)
        if m is None:
            echo = repr(line)
            if len(echo) > _ECHO_CHARS:
                echo = f"{echo[:_ECHO_CHARS]}... ({len(line)} characters)"
            raise PresentationSyntaxError(f"malformed relation {echo}", lineno)
        letters = [_number(g, lineno) for g in m.groups() if g is not None]
        for letter in letters:
            if not 1 <= letter <= n:
                raise PresentationSyntaxError(
                    f"generator index {letter} exceeds alphabet x1..x{n}", lineno
                )
        a, b = letters[:2]
        if len(letters) == 2:
            rel = Relation.zero(a, b)
        else:
            c, d = letters[2:]
            if (c, d) == (a, b):
                raise PresentationSyntaxError(
                    "a binomial relation needs two distinct monomials", lineno
                )
            rel = Relation.equal((a, b), (c, d))
        if rel in seen:
            raise PresentationSyntaxError(f"duplicate relation {rel}", lineno)
        seen.add(rel)
        relations.append(rel)
    if n is None:
        raise PresentationSyntaxError("empty input: expected a 'generators N' header")
    return presentation(n, relations)


def _number(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise PresentationSyntaxError(f"a {len(digits)}-digit number is too long",
                                      lineno) from None


def render_presentation(p: Presentation) -> str:
    lines = [f"generators {p.n}"]
    lines.extend(str(rel) for rel in p.relations)
    return "\n".join(lines) + "\n"


def render_json(p: Presentation) -> str:
    return json.dumps(to_json_dict(p), indent=2) + "\n"


def load_presentation(path) -> Presentation:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise PresentationSyntaxError(
            f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}", line) from None
    return parse_presentation(text)


def save_presentation(p: Presentation, path, as_json: bool = False) -> None:
    text = render_json(p) if as_json else render_presentation(p)
    Path(path).write_text(text)
