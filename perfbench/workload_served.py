"""served: repeated in-process ``cli.main`` queries against a warm cache.

Why: argument parsing and dispatch in cli, file parsing in textio, and the
cache's lookups (a scan of the whole ``runs.jsonl``) and appends dominate;
the engine does little, because misses are cheap n <= 4 presentations.
Reads run beside writes: a fixed share of queries use keys never asked
before, so they miss and append to the file the later lookups scan.

Queries: ``hilbert --max-degree``, ``regularity --cap`` and ``singular
--degree`` go through the cache (``--json`` output); ``certify --verify-k``
on sparse n = 3 presentations and ``validate`` do not.  Popularity of the
warm keys is Zipf-skewed.  Every pass starts from the same warm cache file,
so passes repeat the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

import quadsemi.analysis as analysis
import quadsemi.census as census
import quadsemi.certificates as certificates
import quadsemi.cli as cli
import quadsemi.engine as engine
import quadsemi.model as model
import quadsemi.textio as textio

CACHED_OPS = (
    ("hilbert", "--max-degree", (8, 12, 16)),
    ("regularity", "--cap", (8, 12, 16)),
    ("singular", "--degree", (2, 3, 4, 5)),
)
VERIFY_K = 4
ZIPF_S = 1.1

# warm records, queries per pass, and per-pass counts of new keys,
# certify and validate queries
SCALES = {
    "full": {"warm": 500, "queries": 300, "new": 30, "certify": 30, "validate": 15,
             "sparse": 64},
    "tiny": {"warm": 24, "queries": 40, "new": 4, "certify": 4, "validate": 2,
             "sparse": 8},
}
# share of hits also re-checked against direct API calls
RECHECK_SHARE = 0.1


@dataclass
class Job:
    label: str
    argv: list
    key: tuple
    new: bool
    recheck: bool
    run: object = None


def capture(argv) -> tuple:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Served:
    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.cfg = SCALES[scale]
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.cache_file = self.cache_dir / "runs.jsonl"
        self.expected_api = {}
        self.last_pass = None

    # -- inputs -----------------------------------------------------------

    def setup(self) -> None:
        """Write the input files and warm the cache through the CLI."""
        rng = random.Random(self.seed)
        cfg = self.cfg
        qhs = [p for n in range(1, 5) for p in census.enumerate_qhs(n)]
        sparse = rng.sample(list(census.enumerate_presentations(3, 3)), cfg["sparse"])
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.cache_file.exists():
            self.cache_file.unlink()
        self.files = {}
        self.presentations = {}
        for tag, group in (("q", qhs), ("s", sparse)):
            for i, p in enumerate(group):
                path = self.workdir / f"{tag}{i}.txt"
                path.write_text(textio.render_presentation(p))
                self.files[(tag, i)] = str(path)
                self.presentations[(tag, i)] = p
        keys = [(op, flag, value, ("q", i)) for i in range(len(qhs))
                for op, flag, values in CACHED_OPS for value in values]
        rng.shuffle(keys)
        self.warm_keys = keys[:cfg["warm"]]
        self.new_keys = keys[cfg["warm"]:cfg["warm"] + cfg["new"]]
        self.stored_output = {}
        for key in self.warm_keys:
            self.stored_output[key] = capture(self._argv(key))
        self.warm_bytes = self.cache_file.read_bytes()
        self.job_list = self._make_jobs()

    def _argv(self, key) -> list:
        op, flag, value, pres = key
        return ["--cache", str(self.cache_dir), op, self.files[pres],
                flag, str(value), "--json"]

    def jobs(self) -> list:
        return self.job_list

    def _make_jobs(self) -> list:
        rng = random.Random(self.seed + 1)
        cfg = self.cfg
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.warm_keys))]
        hits = cfg["queries"] - cfg["new"] - cfg["certify"] - cfg["validate"]
        jobs = []
        for key in rng.choices(self.warm_keys, weights, k=hits):
            jobs.append(Job(f"{key[0]} {key[3]} {key[2]} (hit)", self._argv(key),
                            key, False, rng.random() < RECHECK_SHARE))
        for key in self.new_keys:
            jobs.append(Job(f"{key[0]} {key[3]} {key[2]} (new)", self._argv(key),
                            key, True, True))
        sparse = [k for k in self.files if k[0] == "s"]
        for pres in rng.choices(sparse, k=cfg["certify"]):
            jobs.append(Job(f"certify {pres}", ["certify", self.files[pres],
                                                "--verify-k", str(VERIFY_K)],
                            ("certify", None, VERIFY_K, pres), False, True))
        for pres in rng.choices(sorted(self.files), k=cfg["validate"]):
            jobs.append(Job(f"validate {pres}", ["validate", self.files[pres]],
                            ("validate", None, None, pres), False, True))
        rng.shuffle(jobs)
        for job in jobs:
            job.run = lambda argv=job.argv: capture(argv)
        return jobs

    def begin_pass(self) -> None:
        self.cache_file.write_bytes(self.warm_bytes)
        self.pass_output = {}

    # -- checks -----------------------------------------------------------

    def _api(self, key) -> tuple:
        """Exit code and parsed result the CLI should give, from the API."""
        if key in self.expected_api:
            return self.expected_api[key]
        op, _flag, value, pres = key
        p = self.presentations[pres]
        if op == "hilbert":
            result = analysis.profile_to_json(analysis.hilbert_profile(p, value))
            code = 0 if result["nilpotency_index"] is not None else 2
        elif op == "regularity":
            limits = replace(engine.DEFAULT_LIMITS, max_degree=value)
            r = engine.regularity_degree(p, limits)
            result = {"status": r.status, "degree": r.degree,
                      "nilpotency_bound": r.nilpotency_bound, "detail": r.detail}
            code = 0 if r.status == "regular" else 2
        elif op == "singular":
            words = engine.singular_monomials(p, value)
            result = {"degree": value, "singular": [list(w) for w in words]}
            code = 0
        elif op == "certify":
            cert = certificates.search_certificate(p)
            if cert.kind is certificates.CertificateKind.SE_PAIR:
                a, b = cert.pair
                ok = certificates.verify_witness(cert.pair, value, p)
                result = (f"certificate: se_pair ({a}, {b})\n"
                          f"witness power {value}: {'nonzero' if ok else 'ZERO'}")
            elif cert.kind is certificates.CertificateKind.ZERO_SUM:
                result = "certificate: zero_sum"
            else:
                result = f"no certificate: {cert.reason}"
            code = 0 if cert.found else 2
        else:
            report = model.validate_qhs(p)
            result = (f"valid QHS: {p.n} generators, {len(p.relations)} relations"
                      if report.valid else "invalid QHS:")
            code = 0 if report.valid else 1
        self.expected_api[key] = (code, result)
        return code, result

    def check(self, job: Job, out) -> str | None:
        code, text = out
        if job.key[0] in ("certify", "validate"):
            want_code, want_text = self._api(job.key)
            if code != want_code or want_text not in text:
                return f"exit {code} / {text!r}, API gives exit {want_code} / {want_text!r}"
            return None
        first = self.stored_output.get(job.key) or self.pass_output.get(job.key)
        if first is None:
            self.pass_output[job.key] = out
        elif out != first:
            return "cache hit printed something else than the miss that stored it"
        if job.recheck:
            want_code, want = self._api(job.key)
            if code != want_code or json.loads(text) != want:
                return f"exit {code} / {text!r}, API gives exit {want_code} / {want!r}"
        return None

    def end_pass(self, jobs, outcomes, times, wall) -> list:
        """Check what the cache did: every new key appended one record, and
        every hit none, so a cache that misses or is skipped fails here."""
        self.last_pass = jobs
        self.end_bytes = self.cache_file.read_bytes()
        start = self.warm_bytes.count(b"\n")
        appended = self.end_bytes.count(b"\n") - start
        if start != len(self.warm_keys) or appended != len(self.new_keys):
            return [f"cache file: {start} records after warming {len(self.warm_keys)} "
                    f"keys, then {appended} appended in a pass with "
                    f"{len(self.new_keys)} new keys"]
        return []

    def traffic(self) -> dict:
        jobs = self.last_pass
        cached = [j for j in jobs if j.key[0] not in ("certify", "validate")]
        start = self.warm_bytes.count(b"\n")
        end = self.end_bytes.count(b"\n")
        return {
            "queries": len(jobs),
            "cached_queries": len(cached),
            # misses are the records the pass appended
            "hit_share": (len(cached) - (end - start)) / len(cached),
            "records_at_start": start,
            "records_at_end": end,
            "cache_file_bytes_at_end": len(self.end_bytes),
            "distinct_presentations": len({j.key[3] for j in jobs}),
            "rules_lru_entries": 256,
        }
