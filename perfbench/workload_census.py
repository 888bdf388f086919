"""census: the verdict pipeline on a seeded sample of the n = 5 QHS census.

Why: per-call overhead in model, analysis and certificates sets the median
job (a few milliseconds), while the rare presentations still open at the
degree-12 cap run to it and set about half of ``wall_s``; a later
parallel census shows its gain here, bounded by the slowest open job.  The
sample holds hundreds of distinct presentations, more than the engine's
256-entry ``_rules`` LRU, where ``tower`` reuses a handful.

The sample is stratified by cost so that every seed draws the same mix,
using the job times measured when ``data/census_n5.json`` was made
(``make_census_table.py``).  Presentations with a finite verdict are ranked
by cost and cut into equal bins; the seed picks one per bin, so that part
is a uniform draw over the whole enumeration.  The top 25 bins (the
costliest 5%) give their median member instead: the tail job is then the
same presentation for every seed.  The table's costs come from one timing
each, and two builds of it disagreed by more than 30% on almost half of
the presentations, so a seeded pick in a top bin moved ``job_tail_ms`` by
a quarter between seeds.  The 197 presentations open
at the cap cost from about 2.5 s to 19 s each and differ as much in
memory, so any seeded draw among them moves ``wall_s`` and ``peak_rss_mb``
by more than a bound can allow: the sample always holds the cheapest open
presentation, the same for every seed.  One open job of about 2.5 s keeps
a pass near six seconds, so that a run makes enough passes for each job's
fastest time to be steady; one of 501 is below the census's own
open share (197 of 37611), and both shares are reported.  With one open
job, ``job_tail_ms`` (the eleventh slowest job) reads the slowest finite
presentations: the open one shows only in ``wall_s`` and ``cpu_s``, and
the traffic line reports its share of the pass.  The table also holds every presentation's verdict,
which each job is checked against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import quadsemi.analysis as analysis
import quadsemi.census as census
import quadsemi.certificates as certificates
import quadsemi.engine as engine
import quadsemi.model as model

TABLE = "census_n5.json"
N = 5
CODES = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# bins over the finite presentations, and cost quantiles of the open ones
SCALES = {"full": (500, (0,)), "tiny": (24, ())}
# the costliest finite bins, which hold job_tail_ms, give their median member
FIXED_TOP_BINS = 25


def sort_key(p) -> tuple:
    """Content order of a presentation, independent of enumeration order."""
    return tuple((r.left, r.right or (0, 0)) for r in p.relations)


def regularity_token(result) -> str:
    if result.status == "regular":
        return f"regular:{result.degree}"
    if result.status == "irregular_up_to":
        return f"irregular_up_to:{result.degree}"
    return "inconclusive"


def verdict_job(p, limits) -> tuple:
    """One census record's worth of work, as census_records does it."""
    profile = analysis.hilbert_profile(p, limits.max_degree, limits=limits)
    regularity = engine.regularity_degree(p, limits)
    cert = certificates.search_certificate(p)
    uid = model.presentation_hash(p)
    pure = all(model.is_pure(c, p) for c in p.alphabet.letters())
    return uid, profile, regularity, cert, pure


def record_line(p, out) -> str:
    uid, profile, regularity, cert, pure = out
    verdict = f"{regularity_token(regularity)}/{profile.verdict}"
    return f"{uid},{len(p.relations)},{int(pure)},{verdict},{cert.kind.value}"


def sample_digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def strata(indices: list, cost: list, bins: int) -> list:
    """``indices`` ranked by cost class, cut into ``bins`` near-equal runs."""
    order = sorted(indices, key=lambda i: (cost[i], i))
    size, extra = divmod(len(order), bins)
    out = []
    start = 0
    for b in range(bins):
        stop = start + size + (1 if b < extra else 0)
        out.append(order[start:stop])
        start = stop
    return out


def quantile_members(indices: list, cost: list, quantiles) -> list:
    """The member of ``indices`` at each cost quantile."""
    order = sorted(indices, key=lambda i: (cost[i], i))
    return [order[min(int(q * len(order)), len(order) - 1)] for q in quantiles]


@dataclass
class Job:
    label: str
    index: int
    p: object
    run: object = None


def load_table() -> dict:
    return json.loads((Path(__file__).resolve().parent / "data" / TABLE).read_text())


class Census:
    def __init__(self, seed: int, scale: str, table: dict):
        self.seed = seed
        self.scale = scale
        self.table = table
        limits = table["limits"]
        self.limits = engine.EngineLimits(**limits)
        if self.limits != census.CENSUS_LIMITS:
            raise ValueError(f"{TABLE} was made under {limits}, "
                             f"not under CENSUS_LIMITS {census.CENSUS_LIMITS}")
        codes = table["cost_codes"]
        self.cost = [int(codes[k:k + 2], 16) for k in range(0, len(codes), 2)]
        self.verdict = [table["verdicts"][CODES.index(c)]
                        for c in table["verdict_codes"]]
        self.open = [i for i, v in enumerate(self.verdict) if "/finite" not in v]
        self.job_list = []
        self.last_pass = None

    def setup(self) -> None:
        self.job_list = []
        ranked = sorted(census.enumerate_qhs(N), key=sort_key)
        if len(ranked) != self.table["count"]:
            raise ValueError(f"enumerate_qhs({N}) gave {len(ranked)} presentations, "
                             f"{TABLE} describes {self.table['count']}")
        for i in self._sample():
            p = ranked[i]
            self.job_list.append(Job(f"census #{i}", i, p,
                                     lambda p=p: verdict_job(p, self.limits)))

    def _sample(self) -> list:
        full_bins, _ = SCALES["full"]
        bins_count, quantiles = SCALES[self.scale]
        is_open = set(self.open)
        finite = [i for i in range(len(self.cost)) if i not in is_open]
        # tiny keeps the cheapest bins only, so a smoke test ends in seconds
        bins = strata(finite, self.cost, full_bins)[:bins_count]
        rng = random.Random(self.seed)
        picks = [rng.choice(b) if k < full_bins - FIXED_TOP_BINS
                 else quantile_members(b, self.cost, (1 / 2,))[0]
                 for k, b in enumerate(bins)]
        picks += quantile_members(self.open, self.cost, quantiles)
        rng.shuffle(picks)
        return picks

    def jobs(self) -> list:
        return self.job_list

    def begin_pass(self) -> None:
        pass

    def check(self, job: Job, out) -> str | None:
        _uid, profile, regularity, cert, _pure = out
        want = self.verdict[job.index]
        got = f"{regularity_token(regularity)}/{profile.verdict}"
        if got != want:
            return f"verdict {got}, table says {want}"
        if (profile.nilpotency_index is not None and regularity.status == "regular"
                and profile.nilpotency_index > regularity.degree + 1):
            return (f"nilpotency index {profile.nilpotency_index} exceeds "
                    f"regularity degree {regularity.degree} + 1")
        if cert.found and not certificates.certificate_is_valid(cert, job.p):
            return f"certificate {cert.kind.value} fails re-validation"
        return None

    def end_pass(self, jobs, outcomes, times, wall) -> list:
        self.last_pass = (jobs, outcomes, times, wall)
        golden = self.table["golden"]
        if self.seed != golden["seed"] or self.scale != "full":
            return []
        if any(isinstance(o, Exception) for o in outcomes):
            return []  # already failed job by job
        digest = sample_digest(record_line(j.p, o) for j, o in zip(jobs, outcomes))
        if digest != golden["sha256"]:
            return [f"sample digest {digest} != golden {golden['sha256']}"]
        return []

    def traffic(self) -> dict:
        jobs, outcomes, times, wall = self.last_pass
        open_times = [t for o, t in zip(outcomes, times)
                      if not isinstance(o, Exception)
                      and o[1].nilpotency_index is None]
        return {
            "sampled": len(jobs),
            "open_at_cap": len(open_times),
            "open_share": len(open_times) / len(jobs),
            "open_share_of_wall": sum(open_times) / wall,
            "census_open_share": len(self.open) / len(self.verdict),
            "distinct_presentations": len({j.index for j in jobs}),
            "rules_lru_entries": 256,
        }
