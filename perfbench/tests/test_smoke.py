"""Smoke tests of the benchmark harness on its tiny configuration.

    python3 -m pytest perfbench/tests -q

Every run here finishes in a few seconds; none of them measures anything.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workload_census
from tracing import LAYERS, PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    code, lines, err = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--scale", "tiny")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert meta["seed"] == 3 and meta["trace"] == bool(trace)
    assert {"nproc", "cpu_model", "python", "git_commit"} <= set(meta)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert meta["host_factor"] == pytest.approx(
            run.REF_S / (meta["reference_loop_ms"] / 1e3))


def test_spec_lists_every_per_layer_metric_once():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == [name for name, _unit in PER_LAYER]
    assert len(set(names)) == len(names)


def test_without_sources_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    code, lines, _err = bench("--workload", "tower", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_rank_leaves_ten_jobs_beyond():
    assert run.tail_rank(11) == 0
    assert run.tail_rank(503) == 492
    assert run.tail_rank(5) == 4


def test_strata_partition_and_quantile_members():
    cost = [5, 1, 4, 1, 3, 9, 2, 6]
    bins = workload_census.strata(list(range(8)), cost, 3)
    assert sorted(i for b in bins for i in b) == list(range(8))
    assert [len(b) for b in bins] == [3, 3, 2]
    assert max(cost[i] for i in bins[0]) <= min(cost[i] for i in bins[1])
    # costs 5, 4, 9, 6 rank as 2, 0, 7, 5
    assert workload_census.quantile_members([0, 2, 5, 7], cost, (0.25, 0.75)) == [0, 5]


def test_tracer_self_time_sums_to_span_time():
    for layer in LAYERS:  # the package itself leaves cache and cli unloaded
        importlib.import_module(f"quadsemi.{layer}")
    import quadsemi.analysis as analysis
    from quadsemi.constructions import build_regular_qhs

    p = build_regular_qhs(5)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = 0
        profile = analysis.hilbert_profile(p, 40)
    finally:
        tracer.uninstall()
    assert analysis.hilbert_profile.__name__ == "hilbert_profile"
    assert not hasattr(analysis.hilbert_profile, "__wrapped__")
    top = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in top] == ["analysis.hilbert_profile"]
    total_self = sum(s[5] - s[6] for s in tracer.spans)
    assert total_self == pytest.approx(top[0][5], rel=1e-9)
    calls = sum(1 for s in tracer.spans if s[0] == "engine.next_minimal_basis")
    assert calls == profile.nilpotency_index - 1
    metrics = tracer.metrics(tracer.counters.copy(), 0.0, top[0][5], top[0][5])
    assert metrics["engine.next_minimal_basis.calls"]["value"] == calls
    assert metrics["analysis.finite"]["value"] == 1
    assert metrics["engine.words_kept"]["value"] == sum(profile.dims[2:])


def test_census_samples_share_only_the_fixed_tail_and_open_picks():
    table = workload_census.load_table()
    a, b = (set(workload_census.Census(seed, "full", table)._sample())
            for seed in (1, 2))
    fixed = workload_census.FIXED_TOP_BINS + 1
    assert len(a) == len(b) == 501
    assert fixed <= len(a & b) < 2 * fixed


def test_census_check_catches_a_wrong_verdict():
    wl = workload_census.Census(1, "tiny", workload_census.load_table())
    wl.setup()
    job = wl.jobs()[0]
    out = job.run()
    assert wl.check(job, out) is None
    uid, profile, regularity, cert, pure = out
    wrong = type(regularity)("irregular_up_to", 12)
    assert "table says" in wl.check(job, (uid, profile, wrong, cert, pure))


def test_served_check_catches_a_hit_that_differs_from_its_miss(tmp_path):
    from workload_served import Served

    wl = Served(1, "tiny", tmp_path)
    wl.setup()
    wl.begin_pass()
    hit = next(j for j in wl.jobs() if j.key in wl.stored_output)
    code, text = hit.run()
    assert wl.check(hit, (code, text)) is None
    assert "miss that stored it" in wl.check(hit, (code, text + " "))


def test_served_end_pass_catches_a_cache_that_misses(tmp_path):
    from workload_served import Served

    wl = Served(1, "tiny", tmp_path)
    wl.setup()
    wl.begin_pass()
    jobs = wl.jobs()
    outcomes = [job.run() for job in jobs]
    assert wl.end_pass(jobs, outcomes, [], 0.0) == []
    assert wl.traffic()["records_at_end"] == len(wl.warm_keys) + len(wl.new_keys)
    with wl.cache_file.open("a") as fh:  # as if a hit had recomputed and stored
        fh.write("{}\n")
    assert "appended" in wl.end_pass(jobs, outcomes, [], 0.0)[0]


def test_tracer_counts_cache_lines_from_stores(tmp_path):
    import quadsemi.cache as cache

    for i in range(3):
        cache.RunCache(tmp_path).store(f"h{i}", "op", {}, {"i": i}, 0.0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.end_setup()
        rc = cache.RunCache(tmp_path)
        assert rc.lookup("h1", "op", {}) == {"i": 1}
        rc.store("h3", "op", {}, {"i": 3}, 0.0)
        assert rc.lookup("h3", "op", {}) == {"i": 3}
    finally:
        tracer.uninstall()
    assert tracer.counters["cache.lines_scanned"] == 3 + 4
    assert tracer.counters["cache.file_bytes"] == rc.path.stat().st_size
