"""Steadiness mode: run each workload repeatedly and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--out perfbench/results/steady.json]

Runs every workload of BENCHMARK.json ``--runs`` times for its
``run_seconds``, each run a separate ``run.py`` process with its own seed
(1, 2, ...).  For every end-to-end metric of every workload this prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound from BENCHMARK.json.  A spread within a third of the
bound is marked steady; setup_s is reported but only its median is
bounded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        for tag in ("meta", "traffic"):
            if line.startswith(tag + " "):
                result[tag] = json.loads(line[len(tag) + 1:])
    return result


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread <= bound / 3}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="also write every run and the summary as JSON")
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("quartiles need at least 4 runs")

    report = {"runs": {}, "summary": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(one_run(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()),
                flush=True)
        report["runs"][workload] = runs
        report["summary"][workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs], metric["bound"])
            report["summary"][workload][name] = s
            gated = name != "setup_s"
            steady &= s["steady"] or not gated
            print(f"  {workload:7s} {name:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}"
                  + ("" if not gated else "  steady" if s["steady"] else "  NOT STEADY"),
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
