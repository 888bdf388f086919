"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` rebinds every public function of every ``quadsemi``
module in each module namespace that holds it (so ``quadsemi.analysis``'s
imported ``next_minimal_basis`` is wrapped as well as the engine's own), and
wraps the two ``RunCache`` methods on the class.  Package source is never
edited; ``uninstall`` puts every original back.

Each call becomes a span (name, start, end, parent, job, busy, child time)
kept in memory.  A generator gets one span for its whole life whose busy
time is the sum of its resumes, so a consumer's work between items is not
charged to it.  Self time is busy time minus the busy time of the spans
nested directly inside.  Counters that only make sense at one boundary
(candidates per basis step, cache lines scanned, verdict kinds) are taken
by per-name hooks, outside the span's clock but inside its parent's, so
they do no file reads per call: a cache file is read once per traced
set-up or pass, and its line count then follows the stores.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

LAYERS = ("model", "engine", "analysis", "certificates", "constructions",
          "census", "textio", "cache", "cli")

# The enumerators run while a workload sets up, never inside a pass, so
# their layer is measured over set-up spans; every other layer over the
# traced pass.
SETUP_LAYERS = frozenset({"census"})

_METHODS = (("cache", "RunCache", ("lookup", "store")),)

# Every per-layer metric and its unit.  Names ending in .calls, .self_s
# and .degrees/.members/.count read the span table; the rest are counters
# kept by the boundary hooks, or the ratios and totals below.
PER_LAYER = (
    ("engine.next_minimal_basis.calls", "count"),
    ("engine.next_minimal_basis.self_s", "s"),
    ("engine.iter_singular_sets.degrees", "count"),
    ("engine.iter_singular_sets.self_s", "s"),
    ("engine.regularity_degree.calls", "count"),
    ("engine.coset_class.calls", "count"),
    ("engine.coset_class.self_s", "s"),
    ("engine.iter_class.members", "count"),
    ("engine.iter_class.self_s", "s"),
    ("engine.candidates", "count"),
    ("engine.words_kept", "count"),
    ("engine.keep_ratio", "ratio"),
    ("engine.exhausted", "count"),
    ("analysis.hilbert_profile.calls", "count"),
    ("analysis.hilbert_profile.self_s", "s"),
    ("analysis.finite", "count"),
    ("analysis.open", "count"),
    ("analysis.inconclusive", "count"),
    ("certificates.search_certificate.calls", "count"),
    ("certificates.search_certificate.self_s", "s"),
    ("certificates.verify_witness.calls", "count"),
    ("certificates.verify_witness.self_s", "s"),
    ("certificates.found_ratio", "ratio"),
    ("model.validate_qhs.calls", "count"),
    ("model.validate_qhs.self_s", "s"),
    ("model.presentation_hash.calls", "count"),
    ("model.presentation_hash.self_s", "s"),
    ("model.is_pure.calls", "count"),
    ("model.is_pure.self_s", "s"),
    ("census.enumerate_qhs.count", "count"),
    ("census.enumerate_qhs.self_s", "s"),
    ("census.enumerate_presentations.count", "count"),
    ("census.enumerate_presentations.self_s", "s"),
    ("constructions.build_regular_qhs.self_s", "s"),
    ("constructions.power_witness.self_s", "s"),
    ("textio.load_presentation.calls", "count"),
    ("textio.load_presentation.self_s", "s"),
    ("cache.lookup.calls", "count"),
    ("cache.lookup.self_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lines_scanned", "count"),
    ("cache.store.calls", "count"),
    ("cache.store.self_s", "s"),
    ("cache.file_bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("cli.exit_inconclusive", "count"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("bench.self_s", "s"),
    ("trace.setup_wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_share", "ratio"),
)

_RATIOS = {
    "engine.keep_ratio": ("engine.words_kept", "engine.candidates"),
    "certificates.found_ratio": ("certificates.found",
                                 "certificates.search_certificate.calls"),
    "cache.hit_ratio": ("cache.hits", "cache.lookup.calls"),
}

# generator metrics count items yielded: singular-set degrees, class
# members, enumerated presentations
_ITEM_SUFFIXES = ("degrees", "members", "count")


class Tracer:
    """In-memory span recorder; create one per traced run."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, job, busy, child]
        self.stack = []       # indices of the spans currently running
        self.job = "setup"
        self.counters = Counter()
        self._exhausted = {}  # id -> exception, kept alive so ids stay unique
        self._exhausted_type = None  # engine.ResourceExhausted, set by install
        self._saved = []
        self._lines = {}      # cache file -> its lines, see _before_lookup
        self._before = {"cache.lookup": self._before_lookup}
        self._after = {
            "engine.next_minimal_basis": self._after_basis,
            "analysis.hilbert_profile": self._after_profile,
            "certificates.search_certificate": self._after_certificate,
            "cache.lookup": self._after_lookup,
            "cache.store": self._after_store,
            "cli.main": self._after_main,
        }
        self._on_item = {"engine.iter_singular_sets": self._singular_set}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "quadsemi" or name.startswith("quadsemi.")}
        self._exhausted_type = modules["quadsemi.engine"].ResourceExhausted
        wrapped = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name, methods in _METHODS:
            cls = getattr(modules[f"quadsemi.{layer}"], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- span bookkeeping ---------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.job, 0.0, 0.0])
        return len(self.spans) - 1

    def _charge(self, idx: int, start: float, end: float) -> None:
        span = self.spans[idx]
        span[2] = end
        span[5] += end - start
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][6] += end - start

    def _note_exception(self, name: str, exc: BaseException) -> None:
        # one exhaustion unwinds through several engine spans; count it once
        if (name.startswith("engine.") and isinstance(exc, self._exhausted_type)
                and id(exc) not in self._exhausted):
            self._exhausted[id(exc)] = exc
            self.counters["engine.exhausted"] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            on_item = self._on_item.get(name)

            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer._open(name)
                state = {}
                gen = fn(*args, **kwargs)
                while True:
                    tracer.stack.append(idx)
                    start = time.perf_counter()
                    if not tracer.spans[idx][1]:
                        tracer.spans[idx][1] = start
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._charge(idx, start, time.perf_counter())
                        return
                    except BaseException as exc:
                        tracer._charge(idx, start, time.perf_counter())
                        tracer._note_exception(name, exc)
                        raise
                    tracer._charge(idx, start, time.perf_counter())
                    tracer.counters[name + ".items"] += 1
                    if on_item is not None:
                        on_item(args, kwargs, item, state)
                    yield item

            return gen_wrapper

        before = self._before.get(name)
        after = self._after.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer._open(name)
            tracer.stack.append(idx)
            start = time.perf_counter()
            tracer.spans[idx][1] = start
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._charge(idx, start, time.perf_counter())
                tracer._note_exception(name, exc)
                raise
            tracer._charge(idx, start, time.perf_counter())
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-boundary counters ------------------------------------------

    def _after_basis(self, args, kwargs, result):
        basis = args[0] if args else kwargs["basis"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        self.counters["engine.candidates"] += len(basis.minimals) * p.alphabet.n
        self.counters["engine.words_kept"] += len(result.minimals)

    def _singular_set(self, args, kwargs, item, state):
        _degree, words = item
        n = (args[0] if args else kwargs["p"]).alphabet.n
        if "prev" in state:
            self.counters["engine.candidates"] += state["prev"] * n
            self.counters["engine.words_kept"] += len(words)
        state["prev"] = len(words)

    def _after_profile(self, args, kwargs, result):
        self.counters["analysis." + result.verdict.split(":", 1)[0]] += 1

    def _after_certificate(self, args, kwargs, result):
        if result.found:
            self.counters["certificates.found"] += 1

    def _before_lookup(self, args, kwargs):
        # the file is read at its first lookup since end_setup; after that
        # its line count follows the stores
        path = args[0].path
        if path not in self._lines:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                data = b""
            self._lines[path] = data.count(b"\n")
            self.counters["cache.file_bytes"] = len(data)
        self.counters["cache.lines_scanned"] += self._lines[path]

    def _after_lookup(self, args, kwargs, result):
        if result is not None:
            self.counters["cache.hits"] += 1

    def _after_store(self, args, kwargs, result):
        path = args[0].path
        if path in self._lines:  # else the next lookup reads the file
            self._lines[path] += 1  # a store appends one line
        self.counters["cache.file_bytes"] = os.path.getsize(path)

    def _after_main(self, args, kwargs, result):
        if result == 2:
            self.counters["cli.exit_inconclusive"] += 1

    # -- reduction ------------------------------------------------------

    def end_setup(self) -> Counter:
        """Counters of the traced set-up; clears them, and the cache file
        line counts, for the pass that follows."""
        setup = self.counters.copy()
        self.counters.clear()
        self._lines.clear()
        return setup

    def metrics(self, setup_counters: Counter, setup_wall: float,
                pass_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics of one traced set-up and one traced pass.

        ``setup_counters`` is what ``end_setup`` returned.
        """
        calls = Counter()
        self_s = defaultdict(float)
        for name, _start, _end, _parent, job, busy, child in self.spans:
            layer = name.split(".", 1)[0]
            if (job == "setup") != (layer in SETUP_LAYERS):
                continue
            calls[name] += 1
            self_s[name] += busy - child
            self_s[layer] += busy - child
        counters = Counter(self.counters)
        for key, value in setup_counters.items():
            if key.split(".", 1)[0] in SETUP_LAYERS:
                counters[key] = value
        in_pass = sum(self_s[la] for la in LAYERS if la not in SETUP_LAYERS)
        derived = {
            "bench.self_s": pass_wall - in_pass,
            "trace.setup_wall_s": setup_wall,
            "trace.wall_s": pass_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": pass_wall - untraced_wall,
            "trace.self_share": in_pass / pass_wall if pass_wall > 0 else 0.0,
        }

        def value(name):
            if name in derived:
                return derived[name]
            if name in _RATIOS:
                num, den = (value(part) for part in _RATIOS[name])
                return num / den if den else 0.0
            stem, _, last = name.rpartition(".")
            if last == "calls":
                return calls[stem]
            if last == "self_s":
                return self_s[stem]
            if last in _ITEM_SUFFIXES:
                return counters[stem + ".items"]
            return counters[name]

        return {name: {"value": value(name), "unit": unit}
                for name, unit in PER_LAYER}
