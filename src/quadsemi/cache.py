"""Persistent cache for expensive runs, keyed by content and parameters.

Records append to <dir>/runs.jsonl, one JSON object per line, each written
by a single append so concurrent writers cannot interleave a line.  A
lookup matches on the presentation's content hash, the operation name,
the exact parameter set, and the engine version, so changing a cap or
upgrading the engine re-runs instead of replaying stale results.  The
file is never rewritten; the last matching line wins, and unreadable
lines (for example a truncated tail after a crash, or a record whose
result is not an object) are skipped.  A store after a torn tail puts a
newline first, so the torn line stays unreadable on its own and the new
record is kept.  A store holds an exclusive ``flock`` on the file while it
checks the tail and appends, so another writer's append still in flight
is never taken for a torn tail.

Each process indexes the file it reads: it keeps the bytes indexed so far
and the byte span of the winning line per key, and a lookup parses only
the whole lines appended since.  If the file no longer starts with the
indexed bytes (truncated, rewritten or replaced), the index is rebuilt.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from pathlib import Path

from .engine import ENGINE_VERSION

ENV_VAR = "QUADSEMI_CACHE_DIR"
_FILENAME = "runs.jsonl"


# cache file -> (its bytes indexed so far, whole lines only,
#                {key: (start, end) byte span of the last matching line})
_INDEX: dict[Path, tuple[bytes, dict]] = {}


def _params_key(parameters: dict) -> str:
    return json.dumps(parameters, sort_keys=True, separators=(",", ":"))


def _index_lines(data: bytes, start: int, end: int, spans: dict) -> None:
    """Add the lines of data[start:end] that hold a current record to spans."""
    while start < end:
        stop = data.index(b"\n", start)
        try:
            rec = json.loads(data[start:stop].decode("utf-8"))
            if (rec["engine_version"] == ENGINE_VERSION
                    and isinstance(rec["result"], dict)):
                key = (rec["presentation_hash"], rec["operation"],
                       _params_key(rec["parameters"]))
                spans[key] = (start, stop)
        except (ValueError, KeyError, TypeError):
            pass
        start = stop + 1


class RunCache:
    """Append-only store of finished runs under one directory."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.path = self.directory / _FILENAME

    def lookup(self, presentation_hash: str, operation: str,
               parameters: dict) -> dict | None:
        """Result of the most recent matching run, or None."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            _INDEX.pop(self.path, None)
            return None
        done, spans = _INDEX.get(self.path, (b"", {}))
        if not data.startswith(done):
            done, spans = b"", {}
        end = data.rfind(b"\n") + 1
        if end > len(done):
            _index_lines(data, len(done), end, spans)
            done = data[:end]
        _INDEX[self.path] = (done, spans)
        span = spans.get((presentation_hash, operation, _params_key(parameters)))
        if span is None:
            return None
        return json.loads(data[span[0]:span[1]])["result"]

    def store(self, presentation_hash: str, operation: str, parameters: dict,
              result: dict, wall_time: float) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {
                "presentation_hash": presentation_hash,
                "operation": operation,
                "parameters": parameters,
                "result": result,
                "wall_time": wall_time,
                "engine_version": ENGINE_VERSION,
                "stored_at": time.time(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        data = (line + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # another writer's append in flight would look like a torn tail
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data  # end a torn tail so it cannot swallow this record
            os.write(fd, data)
        finally:
            os.close(fd)


def resolve_cache(explicit: str | None) -> RunCache | None:
    """Cache from an explicit directory, else the environment, else None."""
    directory = explicit if explicit is not None else os.environ.get(ENV_VAR)
    if not directory:
        return None
    return RunCache(directory)
