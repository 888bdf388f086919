"""tower: a few deep class walks on the regular tower presentations.

Why: the engine's class walks, its per-degree memo and ``iter_class``
streaming do nearly all the work; cache, textio and cli do none.  The job
list is fixed (the seed only orders it), because the n = 7 regularity and
Hilbert runs (about 37 s and 165 s) are too long to repeat, and n = 5 and
6 plus a capped n = 8 singular-set walk exercise the same code at desk
size.  No job takes much over half a second, so that a run repeats each one
some thirty times and its median time is well estimated; the n = 6
Hilbert profile, about three seconds, would leave a run a handful of
passes.  Each job builds its tower presentation itself, so a job's time is the time
from n to the answer; set-up only lays out the job list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import quadsemi.analysis as analysis
import quadsemi.constructions as constructions
import quadsemi.engine as engine

# Frozen values from the acceptance suite's first verified runs.
N5_DIMS = (1, 5, 17, 45, 90, 123, 109, 69, 34, 12, 2, 0)
N6_DIMS = (1, 6, 25, 84, 230, 487, 775, 931, 861, 638, 388, 192, 73, 18, 2, 0)
N8_SINGULAR_SIZES = (7, 37, 163, 610, 1919, 5028, 10847, 19234, 28173, 34532,
                     35962, 32232)
EXPECTED = {
    5: {"dims": N5_DIMS, "regularity": 10, "nilpotency": 11},
    6: {"dims": N6_DIMS, "regularity": 14, "nilpotency": 15},
}

# (regularity n, Hilbert-profile n, singular-set degree cap on n = 8,
# power-witness size).  Four jobs, so job_p50_ms is the mean of the two
# middle ones rather than one job's time.
SCALES = {
    "full": (6, 5, 5, 6),
    "tiny": (5, 5, 4, 5),
}


@dataclass
class Job:
    label: str
    kind: str
    n: int
    run: object = None


class Tower:
    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.regularity_n, self.hilbert_n, self.sing_cap, self.witness_n = SCALES[scale]
        self.job_list = []

    def setup(self) -> None:
        build = constructions.build_regular_qhs
        reg_n, hil_n = self.regularity_n, self.hilbert_n
        cap = engine.EngineLimits(max_degree=40)
        sing_cap = engine.EngineLimits(max_degree=self.sing_cap)
        jobs = [
            Job(f"regularity n={reg_n}", "regularity", reg_n,
                lambda: engine.regularity_degree(build(reg_n), cap)),
            Job(f"hilbert n={hil_n}", "hilbert", hil_n,
                lambda: analysis.hilbert_profile(build(hil_n), max_degree=40)),
            Job(f"singular sets n=8 to degree {self.sing_cap}", "singular", 8,
                lambda: tuple(len(w) for _d, w in
                              engine.iter_singular_sets(build(8), sing_cap))),
            Job(f"power witness n={self.witness_n}", "witness", self.witness_n,
                lambda: constructions.power_witness(build(self.witness_n))),
        ]
        random.Random(self.seed).shuffle(jobs)
        self.job_list = jobs

    def jobs(self) -> list:
        return self.job_list

    def begin_pass(self) -> None:
        pass

    def end_pass(self, jobs, outcomes, times, wall) -> list:
        return []

    def check(self, job: Job, out) -> str | None:
        if job.kind == "regularity":
            want = EXPECTED[job.n]["regularity"]
            if out.status != "regular" or out.degree != want:
                return f"expected regular at {want}, got {out.status} {out.degree}"
            if out.nilpotency_bound != want + 1:
                return f"nilpotency bound {out.nilpotency_bound} != {want + 1}"
        elif job.kind == "hilbert":
            exp = EXPECTED[job.n]
            if out.dims != exp["dims"]:
                return f"dimensions {out.dims} differ from the frozen profile"
            if out.nilpotency_index != exp["nilpotency"]:
                return f"nilpotency index {out.nilpotency_index} != {exp['nilpotency']}"
            if out.nilpotency_index > exp["regularity"] + 1:
                return "nilpotency index exceeds regularity degree + 1"
        elif job.kind == "singular":
            if out != N8_SINGULAR_SIZES[:self.sing_cap]:
                return f"singular-set sizes {out} differ from the frozen ones"
        else:
            q = constructions.witness_power(job.n)
            if out is None or len(out) != q or out[-1] != job.n:
                return f"witness {out} is not a length-{q} word ending in x{job.n}"
        return None

    def traffic(self) -> dict:
        return {
            "distinct_presentations": len({j.n for j in self.job_list}),
            "rules_lru_entries": 256,
        }
