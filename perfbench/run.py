"""quadsemi benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  Load comes
from this one process: a closed loop with a single client that starts the
next job when the previous one returns, no threads.

A run imports the package and sets the workload up, each at least
``SETUP_REPS`` times and for at least ``SETUP_SECONDS`` (``setup_s`` is the
sum of the two medians), then repeats the workload's fixed job list in
passes for ``--seconds``, starting no pass that its predecessors say would
run past them.  Every pass repeats the same work.  Each job is timed by its
median over the passes: ``wall_s`` and ``cpu_s`` are the sums over the job
list of each job's median wall and CPU time, and ``job_p50_ms`` /
``job_tail_ms`` are taken over the same per-job medians.  The tail is the
highest percentile that still has at least ten jobs beyond it.  Every
job's output is checked after its pass ends, outside the clock; any failed
check makes the run exit 1.

On a shared 2-vCPU host, other tenants slow the CPU itself (CPU time
stretches with wall time) by up to 1.7x, in spells from seconds to
minutes, so a run's medians read the host's load as much as the program.
A fixed reference loop that uses nothing of quadsemi therefore runs
about every ``REF_EVERY`` seconds, between jobs and between set-ups and
outside their clocks, and each time is multiplied by a host factor,
``REF_S`` over the loop's median time in the same phase: the passes'
times by the passes' factor, ``setup_s`` by the set-up's.  Times read as
seconds at the speed at which the loop takes ``REF_S``.  In ten seeded
runs per workload on such a host, the factor took the spread (quartile
distance over median) of ``wall_s`` from 0.17 to 0.03 on tower and from
0.19 to 0.06 on census.  The meta line gives both factors, so the raw
times can be recovered.

With ``--trace 1`` the run makes untraced passes for half of ``--seconds``,
then installs the span tracer and makes one traced set-up and one traced
pass, and prints the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
# set-up and import are each repeated at least SETUP_REPS times and for at
# least SETUP_SECONDS, and timed by the median
SETUP_REPS = 3
SETUP_SECONDS = 1.0
MIN_PASSES = 2
# the reference loop runs after any job or set-up that ends REF_EVERY
# seconds or more after its last run; REF_S is its median time on a shared
# 2-vCPU Intel Xeon virtual machine under that host's usual load
REF_EVERY = 0.1
REF_S = 4.5e-3


def reference_loop() -> int:
    """Fixed interpreter work that uses nothing of quadsemi."""
    total = 0
    slots = {}
    for i in range(30000):
        total += i * i % 7
        slots[i & 1023] = total
    return total


class Reference:
    """Times of the reference loop over one phase of a run."""

    def __init__(self):
        self.times = []
        self.last = -float("inf")

    def sample(self) -> float:
        """Run the loop if it is due; returns the seconds it took, or 0."""
        now = time.perf_counter()
        if now - self.last < REF_EVERY:
            return 0.0
        reference_loop()
        self.last = time.perf_counter()
        self.times.append(self.last - now)
        return self.last - now

    def factor(self) -> float:
        """REF_S over the loop's median time in the phase."""
        return REF_S / statistics.median(self.times)


def median_time(fn, min_reps: int = SETUP_REPS,
                min_seconds: float = SETUP_SECONDS, ref=None) -> float:
    """Median time of ``fn``; ``ref`` samples the reference loop between
    calls."""
    times = []
    total = 0.0
    while len(times) < min_reps or total < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        total += times[-1]
        if ref is not None:
            ref.sample()
    return statistics.median(times)


def import_package(ref=None) -> float:
    """Import every layer of quadsemi from the checkout's src/, refusing
    any other copy; returns the median time of fresh imports."""
    from tracing import LAYERS

    src = ROOT / "src"
    sys.path.insert(0, str(src))

    def fresh_import():
        for name in [m for m in sys.modules if m.split(".")[0] == "quadsemi"]:
            del sys.modules[name]
        package = importlib.import_module("quadsemi")
        for layer in LAYERS:
            importlib.import_module(f"quadsemi.{layer}")
        where = Path(package.__file__).resolve()
        if src.resolve() not in where.parents:
            raise ImportError(f"quadsemi imported from {where}, not from {src}")

    return median_time(fresh_import, ref=ref)


def machine_meta(seed: int, trace: bool, workload: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # a plain source checkout carries no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_rank(count: int) -> int:
    """Index into ascending latencies of the highest percentile with
    at least ten jobs beyond it, or of the maximum for short lists."""
    return count - 11 if count >= 11 else count - 1


class Run:
    """Timings and failures of the passes made so far."""

    def __init__(self, workload):
        self.workload = workload
        self.jobs = workload.jobs()
        self.walls = []
        self.job_times = [[] for _ in self.jobs]
        self.job_cpus = [[] for _ in self.jobs]
        self.ref = Reference()
        self.attempted = 0
        self.failures = []

    def timed_pass(self, tracer=None) -> tuple:
        """Run the job list once; returns (outcomes, per-job seconds, wall).

        Untraced, the reference loop runs between jobs; ``wall`` leaves its
        time out."""
        self.workload.begin_pass()
        outcomes = []
        times = []
        ref_spent = 0.0
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a raising job is a failed job, not a crash
                out = exc
            times.append(time.perf_counter() - t0)
            self.job_cpus[i].append(cpu_seconds() - c0)
            outcomes.append(out)
            if tracer is None:
                ref_spent += self.ref.sample()
        wall = time.perf_counter() - start - ref_spent
        self.walls.append(wall)
        return outcomes, times, wall

    def check_pass(self, outcomes, times, wall) -> None:
        """Check a pass's outputs; runs with tracing off, outside the clock."""
        wl = self.workload
        for i, (job, out) in enumerate(zip(self.jobs, outcomes)):
            self.job_times[i].append(times[i])
            self.attempted += 1
            problem = (f"raised {out!r}" if isinstance(out, Exception)
                       else wl.check(job, out))
            if problem:
                self.failures.append(f"{job.label}: {problem}")
        self.failures.extend(wl.end_pass(self.jobs, outcomes, times, wall))

    def one_pass(self) -> None:
        self.check_pass(*self.timed_pass())

    def passes_until(self, start: float, seconds: float) -> None:
        """Make passes until the next one would end past ``seconds``."""
        while (len(self.walls) < MIN_PASSES
               or time.perf_counter() - start
               + statistics.median(self.walls) <= seconds):
            self.one_pass()

    def latencies(self) -> list:
        """Each job's median time over the passes, ascending."""
        return sorted(statistics.median(t) for t in self.job_times)


def end_to_end(run: Run, setup_s: float) -> dict:
    """Every metric; times of the passes are multiplied by their host
    factor, and ``setup_s`` comes scaled by that of the set-up."""
    lat = run.latencies()
    factor = run.ref.factor()
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(lat) * factor, "s"),
        "cpu_s": (sum(statistics.median(c) for c in run.job_cpus) * factor, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "job_p50_ms": (statistics.median(lat) * 1e3 * factor, "ms"),
        "job_tail_ms": (lat[tail_rank(len(lat))] * 1e3 * factor, "ms"),
    }


def make_workload(name: str, seed: int, scale: str, workdir: Path):
    # imported here: the workload modules import the package
    if name == "tower":
        from workload_tower import Tower
        return Tower(seed, scale)
    if name == "census":
        from workload_census import Census, load_table
        return Census(seed, scale, load_table())
    from workload_served import Served
    return Served(seed, scale, workdir)


def measure(args, workdir: Path) -> tuple:
    """Run one workload; returns (metrics, run, traffic properties,
    set-up host factor)."""
    setup_ref = Reference()
    import_s = import_package(setup_ref)
    wl = make_workload(args.workload, args.seed, args.scale, workdir)
    if not args.trace:
        setup_s = import_s + median_time(wl.setup, ref=setup_ref)
        setup_s *= setup_ref.factor()
        run = Run(wl)
        run.passes_until(time.perf_counter(), args.seconds)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(run, setup_s).items()}
        return metrics, run, wl.traffic(), setup_ref.factor()

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    setup_wall = median_time(wl.setup, 1, 0.0)
    tracer.uninstall()
    setup_counters = tracer.end_setup()
    run = Run(wl)
    run.passes_until(time.perf_counter(), args.seconds / 2)
    untraced = statistics.median(run.walls)
    tracer.install()
    try:
        outcomes, times, traced = run.timed_pass(tracer)
    finally:
        tracer.uninstall()
    run.check_pass(outcomes, times, traced)
    metrics = tracer.metrics(setup_counters, setup_wall, traced, untraced)
    return metrics, run, wl.traffic(), setup_ref.factor()


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tower", "census", "served"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every job list so the harness "
                    "can be smoke-tested in seconds")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    workdir = BENCH_DIR / f".work-{os.getpid()}"
    try:
        metrics, run, traffic, setup_factor = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = machine_meta(args.seed, bool(args.trace), args.workload)
    meta["scale"] = args.scale
    meta["passes"] = len(run.walls)
    meta["reference_loop_ms"] = statistics.median(run.ref.times) * 1e3
    meta["host_factor"] = run.ref.factor()
    meta["setup_host_factor"] = setup_factor
    print("meta " + json.dumps(meta, sort_keys=True))
    print("traffic " + json.dumps(traffic, sort_keys=True))
    lat_count = len(run.jobs)
    rank = tail_rank(lat_count)
    print(f"job_tail_ms is p{100.0 * (rank + 1) / lat_count:.2f} of "
          f"{lat_count} jobs per pass ({lat_count - 1 - rank} slower)")
    failed = len(run.failures)
    print(f"failed_frac {failed / run.attempted:.6f} "
          f"({failed} of {run.attempted} jobs)")
    for problem in run.failures[:20]:
        print("FAILED " + problem)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
