"""Regenerate data/census_n5.json, the census workload's strata and verdicts.

    python3 perfbench/make_census_table.py

Runs the census verdict pipeline (Hilbert profile and regularity degree
under CENSUS_LIMITS) on every QHS with n = 5 generators, in content order
(``workload_census.sort_key``), and records for each presentation its
verdict and its measured job time.  Phase one spreads the census over
one worker process per CPU; phase two re-times the presentations still
open at the cap one by one in this process, since those few set most of a
pass's wall time and their strata must be cut from clean timings.  Finally it runs the
default seed's sample once and stores the digest of its records, which the
benchmark compares against.  A full run takes about half an hour on two
cores.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "data" / "census_n5.json"

_ranked = None


def _import():
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def ranked_presentations() -> list:
    import quadsemi.census as census
    import workload_census as wc

    return sorted(census.enumerate_qhs(wc.N), key=wc.sort_key)


def time_one(index: int) -> tuple:
    """(index, seconds, verdict) of one presentation's census job."""
    global _ranked
    import quadsemi.analysis as analysis
    import quadsemi.census as census
    import quadsemi.engine as engine
    import workload_census as wc

    if _ranked is None:
        _ranked = ranked_presentations()
    p = _ranked[index]
    limits = census.CENSUS_LIMITS
    start = time.perf_counter()
    profile = analysis.hilbert_profile(p, limits.max_degree, limits=limits)
    regularity = engine.regularity_degree(p, limits)
    seconds = time.perf_counter() - start
    return index, seconds, f"{wc.regularity_token(regularity)}/{profile.verdict}"


def _worker_init():
    _import()


def cost_code(seconds: float) -> str:
    """Two hex digits: sixteenth-octave class of the time, 0.5 ms to 31 s."""
    step = round(16 * math.log2(seconds * 1e3)) + 16
    return f"{min(max(step, 0), 255):02x}"


def build_table(rows, count: int, note: str) -> dict:
    """Table from (index, seconds, verdict) rows covering 0..count-1."""
    import quadsemi.census as census
    from workload_census import CODES

    seconds = [0.0] * count
    verdicts = [""] * count
    for index, sec, verdict in rows:
        seconds[index] = sec
        verdicts[index] = verdict
    vocab = sorted(set(verdicts))
    if len(vocab) > len(CODES):
        raise ValueError(f"{len(vocab)} verdicts exceed the code alphabet")
    limits = census.CENSUS_LIMITS
    return {
        "n": 5,
        "count": count,
        "limits": {"max_class_size": limits.max_class_size,
                   "max_degree": limits.max_degree},
        "order": "content order, workload_census.sort_key",
        "timing": note,
        "verdicts": vocab,
        "verdict_codes": "".join(CODES[vocab.index(v)] for v in verdicts),
        "cost_codes": "".join(cost_code(s) for s in seconds),
        "golden": None,
    }


def golden_digest(table: dict, seed: int) -> str:
    """Digest of the default seed's sample, computed from the table's strata."""
    import workload_census as wc

    wl = wc.Census(seed, "full", table)
    wl.setup()
    lines = []
    for job in wl.jobs():
        lines.append(wc.record_line(job.p, job.run()))
    return wc.sample_digest(lines)


def main() -> int:
    _import()
    from run import DEFAULT_SEED

    count = len(ranked_presentations())
    workers = os.cpu_count() or 1
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workers, initializer=_worker_init) as pool:
        rows = list(pool.imap_unordered(time_one, range(count), chunksize=64))
    open_rows = [r for r in rows if "/finite" not in r[2]]
    retimed = {index: (index, sec, verdict)
               for index, sec, verdict in map(time_one, (r[0] for r in open_rows))}
    rows = [retimed.get(r[0], r) for r in rows]
    table = build_table(rows, count, f"phase one on {workers} workers, "
                        "open presentations re-timed alone")
    table["golden"] = {"seed": DEFAULT_SEED,
                       "sha256": golden_digest(table, DEFAULT_SEED)}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(table, indent=0) + "\n")
    print(f"wrote {OUT}: {count} presentations, {len(open_rows)} open at the cap, "
          f"{len(table['verdicts'])} distinct verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
